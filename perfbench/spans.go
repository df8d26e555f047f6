package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. IDs are 1-based
// indexes into the recorder; Parent 0 marks a top-level span, and Op ties
// every span of one point, job or hit together.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// recorder keeps spans in memory until the run ends. While disabled (the
// untraced phases) it records nothing and start returns ID 0.
type recorder struct {
	on     atomic.Bool
	origin time.Time
	mu     sync.Mutex
	spans  []span
	// server is the span of the request the in-process server is handling,
	// the parent of spans recorded on server goroutines (disk I/O). The
	// client is closed-loop with one request outstanding, so there is at
	// most one.
	server atomic.Int64
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now()}
}

// len returns the number of spans recorded so far; a phase's spans are
// those recorded after it.
func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

func (r *recorder) start(name string, parent, op int) int {
	if !r.on.Load() {
		return 0
	}
	now := time.Since(r.origin).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if id == 0 {
		return
	}
	now := time.Since(r.origin).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// endAs ends a span and renames it, for calls whose kind is known only
// once they return.
func (r *recorder) endAs(id int, name string) {
	if id == 0 {
		return
	}
	r.end(id)
	r.mu.Lock()
	r.spans[id-1].Name = name
	r.mu.Unlock()
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Name    string  `json:"name"`
	Calls   int     `json:"calls"`
	TotalMs float64 `json:"total_ms"`
	// SelfMs is TotalMs minus the part of each span's interval that its
	// child spans cover.
	SelfMs float64 `json:"self_ms"`
}

// children returns the finished spans' IDs grouped by parent.
func (r *recorder) children() map[int][]int {
	kids := make(map[int][]int)
	for i, s := range r.spans {
		if s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i+1)
		}
	}
	return kids
}

// layers computes per-name call counts, total time and self time.
func (r *recorder) layers() []layerTime {
	r.mu.Lock()
	defer r.mu.Unlock()
	kids := r.children()
	by := make(map[string]*layerTime)
	for i, s := range r.spans {
		if s.End < 0 {
			continue
		}
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			by[s.Name] = lt
		}
		dur := s.End - s.Start
		lt.Calls++
		lt.TotalMs += float64(dur) / 1e6
		lt.SelfMs += float64(dur-r.covered(s, kids[i+1])) / 1e6
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func (r *recorder) covered(parent span, ids []int) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(ids))
	for _, id := range ids {
		c := r.spans[id-1]
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// topLevel sums the durations of the finished top-level spans recorded
// from ID from+1 on.
func (r *recorder) topLevel(from int) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total int64
	for _, s := range r.spans[from:] {
		if s.Parent == 0 && s.End >= 0 {
			total += s.End - s.Start
		}
	}
	return time.Duration(total)
}

// spanSum is the count and total duration of a set of spans.
type spanSum struct {
	n     int
	total time.Duration
}

// mean returns the mean span duration in milliseconds (0 for no spans).
func (s spanSum) mean() float64 {
	if s.n == 0 {
		return 0
	}
	return ms(s.total) / float64(s.n)
}

// since sums the finished spans of one name recorded from ID from+1 on.
func (r *recorder) since(from int, name string) spanSum {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s spanSum
	for _, sp := range r.spans[from:] {
		if sp.Name == name && sp.End >= 0 {
			s.n++
			s.total += time.Duration(sp.End - sp.Start)
		}
	}
	return s
}

// hitSpans sums, from ID from+1 on, the client spans of /v1/run requests
// and the server handler spans nested under them.
func (r *recorder) hitSpans(from int) (client, handler spanSum) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, sp := range r.spans[from:] {
		if sp.End < 0 {
			continue
		}
		d := time.Duration(sp.End - sp.Start)
		switch {
		case sp.Name == "client.run":
			client.n++
			client.total += d
		case sp.Name == "server.Handler" && sp.Parent > 0 && r.spans[sp.Parent-1].Name == "client.run":
			handler.n++
			handler.total += d
		}
	}
	return client, handler
}

// write saves every span as JSON.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
