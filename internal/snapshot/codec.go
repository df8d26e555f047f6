// Package snapshot serializes and restores aged device state so experiment
// sweeps pay for the aging preamble once per profile instead of once per
// (profile, system) point. A DeviceState captures everything the
// pre-measurement phases of ssd.Run produce — the FTL's L2P table, block
// populations, free lists, wear counters, wordline ages, GC/refresh
// bookkeeping, the accumulated stats, and the positions of the random
// streams — behind a versioned, checksummed binary codec and a
// content-addressed Store with an in-memory tier and an optional on-disk
// tier. Corruption, truncation, and version skew all fail soft: a bad
// snapshot is a cache miss, never a failed run.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"idaflash/internal/coding"
	"idaflash/internal/flash"
	"idaflash/internal/frame"
	"idaflash/internal/ftl"
)

// CodecVersion is the on-disk format version. Bump it whenever the framing,
// the payload layout or the meaning of any captured field changes; the
// Store treats a version mismatch as a miss, and callers fold the version
// into their cache keys so stale fixture directories invalidate themselves.
const CodecVersion = 2

// magic brands snapshot files so arbitrary bytes are rejected before any
// length field is trusted.
var magic = [8]byte{'I', 'D', 'A', 'S', 'N', 'A', 'P', 0}

// recState is the kind of a snapshot file's one frame record.
const recState byte = 'S'

// Typed decode failures. All of them mean "treat as a cache miss"; the
// distinctions exist for logs and tests.
var (
	// ErrNotSnapshot means the bytes do not start with the snapshot magic.
	ErrNotSnapshot = errors.New("snapshot: not a snapshot file")
	// ErrVersion means the file was written by a different codec version.
	ErrVersion = errors.New("snapshot: codec version mismatch")
	// ErrChecksum means the payload failed its integrity checksum.
	ErrChecksum = errors.New("snapshot: checksum mismatch")
	// ErrCorrupt means the payload was structurally invalid (truncated,
	// impossible lengths, non-canonical fields) despite passing or not
	// reaching the checksum.
	ErrCorrupt = errors.New("snapshot: corrupt payload")
)

// DeviceState is one device's aged pre-measurement state: the FTL state at
// the snapshot boundary plus the fault injector's random-stream position
// (the only non-FTL state the zero-time phases consume).
type DeviceState struct {
	FTL           *ftl.State
	InjectorDraws uint64
}

// Encode serializes the state as an internal/frame file: a header and one
// record whose payload is the field walk below. The encoding is
// deterministic (sparse maps are written in sorted key order), so identical
// states produce identical bytes. It fails on a nil state and on a payload
// too large for one record.
func Encode(st *DeviceState) ([]byte, error) {
	if st == nil || st.FTL == nil {
		return nil, fmt.Errorf("snapshot: encode of nil state")
	}
	var c codec
	c.deviceState(st)
	out := frame.AppendHeader(make([]byte, 0, frame.HeaderLen+5+len(c.b)+8), magic, CodecVersion)
	out, err := frame.AppendRecord(out, recState, c.b)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return out, nil
}

// Decode parses bytes produced by Encode. It never panics on arbitrary
// input: the checksum is verified before the payload is parsed, and every
// length is validated against the remaining payload before any allocation.
// It accepts only canonical input, which Encode reproduces byte for byte.
func Decode(b []byte) (*DeviceState, error) {
	rest, err := frame.Header(b, magic, CodecVersion)
	var kind byte
	var payload []byte
	if err == nil {
		kind, payload, rest, err = frame.Next(rest, math.MaxInt)
	}
	switch {
	case errors.Is(err, frame.ErrMagic):
		return nil, ErrNotSnapshot
	case errors.Is(err, frame.ErrVersion):
		return nil, fmt.Errorf("%w: %v", ErrVersion, err)
	case errors.Is(err, frame.ErrChecksum):
		return nil, ErrChecksum
	case err != nil:
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	case kind != recState || len(rest) != 0:
		return nil, fmt.Errorf("%w: record kind %q with %d trailing bytes", ErrCorrupt, kind, len(rest))
	}
	c := codec{dec: true, b: payload}
	st := &DeviceState{FTL: &ftl.State{}}
	c.deviceState(st)
	if c.err == nil && c.off != len(c.b) {
		c.fail("%d trailing payload bytes", len(c.b)-c.off)
	}
	if c.err != nil {
		return nil, c.err
	}
	return st, nil
}

// codec is the payload's one field walk, run in either direction: encoding
// appends every field it visits to b, decoding fills the field from b at
// off. The encode side only reads through the pointers it is handed (a
// cached state seeds concurrent restores, so even a same-value store would
// race). Decoding latches the first error, after which every field reads as
// zero and every loop stops, so the walk needs no per-field checks.
type codec struct {
	dec bool
	b   []byte
	off int
	err error
}

func (c *codec) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
}

// need reserves n payload bytes for decoding, failing if they are not there.
func (c *codec) need(n int) bool {
	if c.err != nil {
		return false
	}
	if n < 0 || len(c.b)-c.off < n {
		c.fail("truncated at offset %d (need %d bytes)", c.off, n)
		return false
	}
	return true
}

func (c *codec) u64(p *uint64) {
	if !c.dec {
		c.b = binary.LittleEndian.AppendUint64(c.b, *p)
	} else if c.need(8) {
		*p = binary.LittleEndian.Uint64(c.b[c.off:])
		c.off += 8
	}
}

func u32[T ~uint32](c *codec, p *T) {
	if !c.dec {
		c.b = binary.LittleEndian.AppendUint32(c.b, uint32(*p))
	} else if c.need(4) {
		*p = T(binary.LittleEndian.Uint32(c.b[c.off:]))
		c.off += 4
	}
}

// i64 moves a signed integer as its two's-complement u64.
func i64[T ~int | ~int64](c *codec, p *T) {
	v := uint64(*p)
	c.u64(&v)
	if c.dec {
		*p = T(int64(v))
	}
}

func (c *codec) f64(p *float64) {
	v := math.Float64bits(*p)
	c.u64(&v)
	if c.dec {
		*p = math.Float64frombits(v)
	}
}

// flags moves up to eight bools as one byte, vs[i] in bit i; a lone bool
// is a one-flag byte. Decoding rejects bits no flag owns.
func (c *codec) flags(vs ...*bool) {
	var v uint8
	if !c.dec {
		for i, p := range vs {
			if *p {
				v |= 1 << i
			}
		}
		c.b = append(c.b, v)
		return
	}
	if !c.need(1) {
		return
	}
	v = c.b[c.off]
	c.off++
	if v>>len(vs) != 0 {
		c.fail("flag byte %#x has unknown bits", v)
		return
	}
	for i, p := range vs {
		*p = v&(1<<i) != 0
	}
}

// count moves a u64 length prefix: n when encoding; when decoding, the
// stored length, refused unless that many elements of at least size bytes
// fit in the remaining payload, so a corrupt length cannot force a giant
// allocation.
func (c *codec) count(n, size int) int {
	v := uint64(n)
	c.u64(&v)
	if !c.dec {
		return n
	}
	if c.err != nil {
		return 0
	}
	if v > uint64(len(c.b)-c.off)/uint64(size) {
		c.fail("length %d exceeds remaining payload", v)
		return 0
	}
	return int(v)
}

// slice moves a length-prefixed slice whose elements take at least size
// bytes each. An empty slice decodes as nil.
func slice[T any](c *codec, s *[]T, size int, elem func(*codec, *T)) {
	n := c.count(len(*s), size)
	if c.dec && n > 0 {
		*s = make([]T, n)
	}
	for i := 0; i < n && c.err == nil; i++ {
		elem(c, &(*s)[i])
	}
}

// fixed moves a fixed-size array behind a length prefix that must match.
func (c *codec) fixed(name string, vs []uint64) {
	if n := c.count(len(vs), 8); n != len(vs) {
		c.fail("%s has %d buckets, want %d", name, n, len(vs))
		return
	}
	for i := range vs {
		c.u64(&vs[i])
	}
}

// bits moves a length-prefixed []bool packed eight entries per byte, the
// unused high bits of the last byte zero.
func (c *codec) bits(p *[]bool) {
	n := c.count(len(*p), 1)
	nbytes := (n + 7) / 8
	if !c.dec {
		for i := 0; i < nbytes; i++ {
			var v uint8
			for j, b := range (*p)[i*8 : min(n, i*8+8)] {
				if b {
					v |= 1 << j
				}
			}
			c.b = append(c.b, v)
		}
		return
	}
	if n == 0 || !c.need(nbytes) {
		return
	}
	if r := n % 8; r != 0 && c.b[c.off+nbytes-1]>>r != 0 {
		c.fail("bitset of %d entries has padding bits set", n)
		return
	}
	*p = make([]bool, n)
	for i := range *p {
		(*p)[i] = c.b[c.off+i/8]&(1<<(i%8)) != 0
	}
	c.off += nbytes
}

// sparse moves a map as (key, value) pairs in strictly increasing key
// order; decoding rejects any other order, duplicates included. An empty
// map decodes as nil.
func (c *codec) sparse(m *map[int64]uint64) {
	keys := make([]int64, 0, len(*m))
	for k := range *m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	n := c.count(len(keys), 16)
	if c.dec && n > 0 {
		*m = make(map[int64]uint64, n)
		keys = make([]int64, n)
	}
	for i := 0; i < n && c.err == nil; i++ {
		v := (*m)[keys[i]]
		i64(c, &keys[i])
		c.u64(&v)
		if c.dec {
			if i > 0 && keys[i] <= keys[i-1] {
				c.fail("sparse L2P keys out of order at entry %d", i)
			}
			(*m)[keys[i]] = v
		}
	}
}

func (c *codec) deviceState(st *DeviceState) {
	f := st.FTL
	g := &f.Geometry
	for _, p := range []*int{&g.Channels, &g.ChipsPerChannel, &g.DiesPerChip, &g.PlanesPerDie,
		&g.BlocksPerPlane, &g.WordlinesPerBlock, &g.PageSizeBytes, &g.BitsPerCell} {
		i64(c, p)
	}

	// The presence flag tells an empty dense table from a device over the
	// dense cap, which has none.
	dense := f.DenseL2P != nil
	c.flags(&dense)
	if dense {
		slice(c, &f.DenseL2P, 8, (*codec).u64)
		if c.dec && f.DenseL2P == nil {
			f.DenseL2P = []uint64{}
		}
	}
	c.sparse(&f.SparseL2P)
	i64(c, &f.L2PCount)
	i64(c, &f.AllocCursor)
	slice(c, &f.Planes, 24, (*codec).plane) // active + free length + blocks length minimum
	slice(c, &f.PendingGC, 25, (*codec).gcJob)
	c.flags(&f.RefreshingActive)
	c.blockAddr(&f.Refreshing)
	c.stats(&f.Stats)
	c.u64(&f.RNGDraws)
	c.u64(&st.InjectorDraws)
}

func (c *codec) plane(ps *ftl.PlaneState) {
	i64(c, &ps.Active)
	slice(c, &ps.Free, 8, i64[int])
	slice(c, &ps.Blocks, 1, (*codec).block)
}

func (c *codec) block(bs *ftl.BlockState) {
	c.flags(&bs.Present)
	if !bs.Present {
		return
	}
	i64(c, &bs.EraseCount)
	i64(c, &bs.OpenedAt)
	i64(c, &bs.ProgrammedAt)
	i64(c, &bs.NextStep)
	i64(c, &bs.ValidCount)
	c.flags(&bs.IDA, &bs.Refreshed, &bs.Bad, &bs.Retired)
	c.bits(&bs.Valid)
	slice(c, &bs.RMap, 8, i64[ftl.LPN])
	slice(c, &bs.WLKeep, 4, u32[coding.ValidMask])
}

func (c *codec) gcJob(job *ftl.GCJob) {
	c.blockAddr(&job.Victim)
	c.flags(&job.VictimWasIDA)
	slice(c, &job.Moves, 72, (*codec).move)
}

func (c *codec) move(m *ftl.MoveOp) {
	c.pageAddr(&m.From)
	i64(c, &m.FromSenses)
	c.pageAddr(&m.To)
	i64(c, &m.LPN)
	i64(c, &m.FailedPrograms)
}

func (c *codec) blockAddr(a *flash.BlockAddr) {
	i64(c, &a.Plane)
	i64(c, &a.Block)
}

func (c *codec) pageAddr(a *flash.PageAddr) {
	c.blockAddr(&a.BlockAddr)
	i64(c, &a.Page)
}

func (c *codec) stats(s *ftl.Stats) {
	for _, p := range []*uint64{&s.HostReads, &s.HostWrites, &s.Invalidations, &s.Erases} {
		c.u64(p)
	}
	c.fixed("ReadsByClass", s.ReadsByClass[:])
	c.fixed("ReadsBySenses", s.ReadsBySenses[:])
	for _, p := range []*uint64{&s.ReadsFromIDA, &s.GCJobs, &s.GCMoves, &s.GCIDAVictims,
		&s.Refreshes, &s.RefreshValidPages, &s.RefreshMoves, &s.IDARefreshes, &s.IDAAdjustedWLs,
		&s.IDAVerifyReads, &s.IDACorruptedWrites, &s.IDAKeptPages} {
		c.u64(p)
	}
	c.f64(&s.ProgramPower)
	c.f64(&s.ProgrammedCells)
	for _, p := range []*uint64{&s.ProgramFailures, &s.EraseFailures, &s.RetiredBlocks} {
		c.u64(p)
	}
}
