package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"idaflash"
)

// procCounters is a reading of the process-wide cost counters a timed phase
// is charged with: CPU time of every thread (the GC workers on the second
// core included, which wall time hides), heap bytes allocated, and the
// runtime's GC accounting.
type procCounters struct {
	cpu      time.Duration
	alloc    uint64
	gcCycles uint64
	gcCPU    float64 // seconds
	totalCPU float64 // seconds, the runtime's own estimate
}

var counterNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readCounters() procCounters {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(counterNames))
	for i, n := range counterNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return procCounters{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:    s[0].Value.Uint64(),
		gcCycles: s[1].Value.Uint64(),
		gcCPU:    s[2].Value.Float64(),
		totalCPU: s[3].Value.Float64(),
	}
}

func (c procCounters) add(o procCounters) procCounters {
	return procCounters{
		cpu:      c.cpu + o.cpu,
		alloc:    c.alloc + o.alloc,
		gcCycles: c.gcCycles + o.gcCycles,
		gcCPU:    c.gcCPU + o.gcCPU,
		totalCPU: c.totalCPU + o.totalCPU,
	}
}

func (c procCounters) sub(o procCounters) procCounters {
	return procCounters{
		cpu:      c.cpu - o.cpu,
		alloc:    c.alloc - o.alloc,
		gcCycles: c.gcCycles - o.gcCycles,
		gcCPU:    c.gcCPU - o.gcCPU,
		totalCPU: c.totalCPU - o.totalCPU,
	}
}

// heapPeak tracks the largest live heap the collector marked during the
// timed phase. The live-heap metric only moves at GC marks, so sampling it
// after every operation sees every peak without stopping the world.
type heapPeak struct {
	sample []metrics.Sample
	max    uint64
}

func newHeapPeak() *heapPeak {
	return &heapPeak{sample: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

func (h *heapPeak) observe() {
	metrics.Read(h.sample)
	if v := h.sample[0].Value.Uint64(); v > h.max {
		h.max = v
	}
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place) and
// how many samples lie above it.
func quantile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1], len(xs) - rank
}

// median returns the middle of xs (sorted in place), averaging the two
// middle samples of an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// resultHash is the correctness fingerprint of one simulated point: the
// SHA-256 of its scalar results in their canonical JSON form, which is also
// the byte form the result store serves.
func resultHash(r idaflash.Results) string {
	b, err := json.Marshal(r.Scalars())
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return bytesHash(b)
}

func bytesHash(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// digestOf folds an ordered list of point hashes into one digest.
func digestOf(hashes []string) string {
	h := sha256.New()
	for _, s := range hashes {
		h.Write([]byte(s))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fingerprint identifies the host and build a report was measured on;
// figures from different fingerprints are not comparable.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

func hostFingerprint() fingerprint {
	fp := fingerprint{
		CPU:        "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				fp.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					fp.Commit += "+dirty"
				}
			}
		}
	}
	return fp
}
