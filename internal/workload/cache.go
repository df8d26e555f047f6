package workload

import (
	"context"
	"encoding/json"
	"fmt"

	"idaflash/internal/memo"
)

// TraceCache memoizes generated traces and aging preambles per normalized
// profile. Every (profile, system) pair of an experiment sweep replays the
// same profile trace — the system knobs change the device, never the host
// stream — so generating it once and sharing it across systems removes the
// largest repeated cost of a sweep. Cached traces are handed out as shared
// pointers: the simulator replays them through a cursor and never mutates
// them, and callers must do the same.
//
// The cache is a memo.Group: two goroutines asking for the same profile
// concurrently generate it once, and it bounds itself to a fixed number of
// profiles with LRU eviction, so long-lived processes sweeping many
// profiles do not pin every trace forever.
type TraceCache struct {
	mem *memo.Group[string, traces]
}

// traces is one profile's memoized generation.
type traces struct {
	trace, preamble *Trace
}

// defaultTraceCacheLimit bounds the default cache: the paper's sweeps use
// ~20 distinct profiles, so 64 keeps every realistic sweep fully cached.
const defaultTraceCacheLimit = 64

// NewTraceCache builds a cache holding at most limit profiles (<= 0 uses
// the default of 64).
func NewTraceCache(limit int) *TraceCache {
	if limit <= 0 {
		limit = defaultTraceCacheLimit
	}
	return &TraceCache{mem: memo.New[string, traces](limit)}
}

// DefaultTraceCache is the process-wide cache the idaflash run helpers use.
var DefaultTraceCache = NewTraceCache(0)

// profileKey encodes the normalized profile losslessly. Profile is plain
// data (scalars and a name) and encoding/json emits struct fields in
// declaration order, so the key is deterministic. An encoding failure is
// reported rather than panicked: the caller falls back to an uncached
// generation, trading the memoization for survival.
func profileKey(p Profile) (string, error) {
	b, err := json.Marshal(p)
	if err != nil {
		return "", fmt.Errorf("workload: encoding trace cache key: %w", err)
	}
	return string(b), nil
}

// Traces returns the profile's trace and aging preamble, generating them on
// the first request and recalling them afterwards. The returned traces are
// shared and must be treated as immutable.
func (c *TraceCache) Traces(p Profile) (trace, preamble *Trace, err error) {
	np, err := p.Normalize()
	if err != nil {
		return nil, nil, err
	}
	generate := func() (traces, error) {
		tr, err := np.Generate()
		if err != nil {
			return traces{}, err
		}
		pre, err := np.AgingPreamble()
		if err != nil {
			return traces{}, err
		}
		return traces{tr, pre}, nil
	}
	var t traces
	if k, kerr := profileKey(np); kerr != nil {
		// Uncacheable is not unrunnable: generate without memoizing.
		t, err = generate()
	} else {
		t, _, err = c.mem.Do(context.Background(), k, generate)
	}
	return t.trace, t.preamble, err
}

// Len returns the number of cached profiles (tests and diagnostics).
func (c *TraceCache) Len() int { return c.mem.Len() }
