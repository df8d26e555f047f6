package results

import (
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"

	"idaflash/internal/memo"
)

// defaultMemEntries bounds the in-memory tier: result payloads are a few KB
// each, so 512 keeps the whole Figure 8 sweep and several sensitivity grids
// resident for about a megabyte.
const defaultMemEntries = 512

// Store memoizes simulation result payloads by their canonical memo key: a
// bounded in-memory LRU tier (a memo.Group), always on, and an optional
// content-addressed disk tier (SetBlobs) whose files survive the process.
//
// GetOrCompute is the only read path. The payload is opaque bytes — the
// canonical JSON of a Results value — so a cached point is served
// byte-identical to its cold run, across restarts and across clients, and
// every disk failure mode degrades to a miss.
type Store struct {
	mem *memo.Group[string, []byte]

	mu    sync.Mutex
	blobs blobTier
	disk  *Disk // health plumbing; nil when blobs is absent or synthetic

	// diskHits counts claims the blob tier served: the memory tier counts
	// them as misses, the store as hits.
	diskHits atomic.Uint64
}

// blobTier is the persistent layer (satisfied by *Blobs). Declared as an
// interface so tests can inject failures.
type blobTier interface {
	Get(key string) []byte
	Put(key string, b []byte)
	Delete(key string)
}

// NewStore builds a store holding at most limit payloads in memory (<= 0
// uses the default of 512).
func NewStore(limit int) *Store {
	if limit <= 0 {
		limit = defaultMemEntries
	}
	return &Store{mem: memo.New[string, []byte](limit)}
}

// SetBlobs attaches (or, with nil, detaches) the persistent tier.
func (s *Store) SetBlobs(b *Blobs) {
	s.mu.Lock()
	if b == nil {
		s.blobs = nil
		s.disk = nil
	} else {
		s.blobs = b
		s.disk = b.Disk()
	}
	s.mu.Unlock()
}

// Health reports the disk tier's failure state, or nil when the store is
// memory-only by configuration (no disk attached — nothing to degrade).
func (s *Store) Health() *DiskHealth {
	s.mu.Lock()
	d := s.disk
	s.mu.Unlock()
	if d == nil {
		return nil
	}
	h := d.Health()
	return &h
}

// Stats are the store's lifetime counters.
type Stats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Entries is the current in-memory population.
	Entries int `json:"entries"`
	// Disk is the disk tier's failure state; omitted when memory-only.
	Disk *DiskHealth `json:"disk,omitempty"`
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	// Read diskHits first: each disk hit is a memory miss counted before it,
	// so the subtraction cannot go negative.
	disk := s.diskHits.Load()
	mem := s.mem.Stats()
	return Stats{Hits: mem.Hits + disk, Misses: mem.Misses - disk, Entries: s.mem.Len(), Disk: s.Health()}
}

// GetOrCompute resolves key: from memory, from disk, or by running compute
// exactly once across all concurrent callers. cached reports whether this
// caller was served without executing compute (a memory/disk hit, or a wait
// on another caller's compute). A compute error or cancellation is never
// cached: waiters retry afresh.
func (s *Store) GetOrCompute(ctx context.Context, key string, compute func(context.Context) ([]byte, error)) (b []byte, cached bool, err error) {
	s.mu.Lock()
	blobs := s.blobs
	s.mu.Unlock()
	fromDisk := false
	b, shared, err := s.mem.Do(ctx, key, func() ([]byte, error) {
		if blobs != nil {
			if payload := blobs.Get(key); payload != nil {
				// Result payloads are canonical JSON and the blob files carry
				// no checksum, so a torn write shows up here as an invalid
				// document. Drop it and recompute rather than serve garbage.
				if json.Valid(payload) {
					fromDisk = true
					s.diskHits.Add(1)
					return payload, nil
				}
				blobs.Delete(key)
			}
		}
		payload, err := compute(ctx)
		if err == nil && payload == nil {
			err = context.Canceled
		}
		return payload, err
	})
	if err != nil {
		return nil, false, err
	}
	if !shared && !fromDisk && blobs != nil {
		blobs.Put(key, b)
	}
	return b, shared || fromDisk, nil
}
