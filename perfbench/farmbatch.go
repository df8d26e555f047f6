package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"idaflash"
	"idaflash/internal/experiments"
	"idaflash/internal/farm"
	"idaflash/internal/results"
	"idaflash/internal/server"
	"idaflash/internal/snapshot"
)

// farm-batch shape. Each cycle of the closed-loop client submits one batch
// job of fresh points, then sends hitsPerCycle /v1/run requests for points
// the server has already stored.
const (
	// jobRequests is the base request budget of batch points; each cycle
	// adds its index, so every job's points are keys the store has never
	// seen.
	jobRequests = 5000
	// hitRequests is the budget of the hit set, below every job budget.
	hitRequests  = 2000
	hitsPerCycle = 16
	// cyclesPerSecond sizes the timed phase like the sweeps' passes.
	cyclesPerSecond = 28
	// leastCycles keeps the cycles the digest covers in every run.
	leastCycles = 8
)

// jobProfiles × jobSystems are one batch job's points. The hit set is the
// paper profiles under the same two systems: Baseline and IDA-E20.
var (
	jobProfiles = []string{"hm_1", "usr_1"}
	jobSystems  = []server.SystemSpec{{}, {IDA: true, ErrorRate: 0.2}}
)

// Headers tie a request to the client span that sent it, so the server-side
// spans of a traced run nest under it.
const (
	spanHeader = "X-Perfbench-Span"
	opHeader   = "X-Perfbench-Op"
)

// seedOffset derives the budget offset of every farm-batch point from the
// workload seed.
func seedOffset(seed int64) int {
	o := int((seed * 7919) % 500)
	if o < 0 {
		o += 500
	}
	return o
}

// wirePoint is one point as the client sends it.
type wirePoint struct {
	Profile string            `json:"profile"`
	System  server.SystemSpec `json:"system"`
}

// systemFor mirrors the server's translation of a wire spec, for the
// in-process reference runs and key timings.
func systemFor(spec server.SystemSpec) idaflash.System {
	sys := idaflash.Baseline()
	if spec.IDA {
		sys = idaflash.IDA(spec.ErrorRate)
	}
	sys.Coding = idaflash.CodingIDA
	return sys
}

// timingFS is the production filesystem under spans, so disk-tier reads
// and writes show up in the traced run.
type timingFS struct {
	results.OSFS
	rec *recorder
}

func (f timingFS) ReadFile(path string) ([]byte, error) {
	sp := f.rec.start("results.FS.ReadFile", int(f.rec.server.Load()), -1)
	defer f.rec.end(sp)
	return f.OSFS.ReadFile(path)
}

func (f timingFS) WriteFile(dir, name string, data []byte, sync bool) error {
	sp := f.rec.start("results.FS.WriteFile", int(f.rec.server.Load()), -1)
	defer f.rec.end(sp)
	return f.OSFS.WriteFile(dir, name, data, sync)
}

// timeHandler is a span around the server's whole handler.
func timeHandler(rec *recorder, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !rec.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
		op, _ := strconv.Atoi(r.Header.Get(opHeader))
		sp := rec.start("server.Handler", parent, op)
		rec.server.Store(int64(sp))
		h.ServeHTTP(w, r)
		rec.end(sp)
	})
}

// farmRig is the service as cmd/idaserver wires it, in-process: one worker,
// a store root with snapshot and result blobs under one eviction budget,
// and the durable job journal, served over loopback.
type farmRig struct {
	dir    string
	srv    *server.Server
	hs     *http.Server
	served chan struct{}
	base   string
	client *http.Client
}

func startRig(cfg config, rep int, rec *recorder) (*farmRig, error) {
	resetCaches()
	dir, err := filepath.Abs(filepath.Join(cfg.workDir, fmt.Sprintf("farm-%d-%d", os.Getpid(), rep)))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	disk, err := results.OpenDiskOptions(dir, results.DiskOptions{FS: timingFS{rec: rec}})
	if err != nil {
		return nil, err
	}
	idaflash.DefaultSnapshots.SetBlobs(disk.Sub(idaflash.ExtSnapshot))
	journal, err := farm.OpenJournal(filepath.Join(dir, "jobs"))
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{Workers: 1, Journal: journal})
	srv.ResultStore().SetBlobs(disk.Sub(idaflash.ExtResult))
	srv.RecoverJobs()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &farmRig{
		dir:    dir,
		srv:    srv,
		hs:     &http.Server{Handler: timeHandler(rec, srv.Handler())},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		// One connection, reused by every request of the closed loop.
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
	}
	go func() {
		_ = r.hs.Serve(ln) // returns ErrServerClosed after Shutdown
		close(r.served)
	}()
	return r, nil
}

// stop drains the server, closes the listener and waits for it, and
// removes the store root.
func (r *farmRig) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	derr := r.srv.Drain(ctx)
	serr := r.hs.Shutdown(ctx)
	<-r.served
	r.client.CloseIdleConnections()
	if derr != nil {
		return fmt.Errorf("draining the server: %w", derr)
	}
	if serr != nil {
		return fmt.Errorf("closing the listener: %w", serr)
	}
	return os.RemoveAll(r.dir)
}

// post sends one request and returns the response, tagged with the client
// span when tracing.
func (r *farmRig) post(rec *recorder, path string, body []byte, span, op int) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, r.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if rec.on.Load() {
		req.Header.Set(spanHeader, strconv.Itoa(span))
		req.Header.Set(opHeader, strconv.Itoa(op))
	}
	return r.client.Do(req)
}

// streamEvent is one ndjson line of a batch stream.
type streamEvent struct {
	Job   *farm.Status      `json:"job"`
	Point *farm.PointResult `json:"point"`
	Done  *farm.Status      `json:"done"`
}

// jobPoint is one batch point's outcome as the client saw it.
type jobPoint struct {
	profile string
	spec    server.SystemSpec
	budget  int
	hash    string // of the stored result payload, byte for byte
	raw     json.RawMessage
}

// batch submits points at one budget and follows the job's ndjson stream
// to its terminal event. keep retains each point's payload.
func (r *farmRig) batch(rec *recorder, out *outcome, op, budget int, pts []wirePoint, keep bool) ([]jobPoint, time.Duration, error) {
	body, err := json.Marshal(map[string]any{"points": pts, "requests": budget, "stream": "ndjson"})
	if err != nil {
		return nil, 0, err
	}
	top := rec.start("client.batch", 0, op)
	defer rec.end(top)
	accept := rec.start("farm.accept", top, op)
	t0 := time.Now()
	resp, err := r.post(rec, "/v1/batch", body, top, op)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return nil, 0, fmt.Errorf("batch: %s: %s", resp.Status, strings.TrimSpace(string(b)))
	}
	got := make([]jobPoint, len(pts))
	seen := 0
	var done *farm.Status
	br := bufio.NewReader(resp.Body)
	for done == nil {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return nil, 0, fmt.Errorf("batch stream ended early: %w", err)
		}
		var ev streamEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, 0, fmt.Errorf("batch stream: %w", err)
		}
		switch {
		case ev.Job != nil:
			rec.end(accept)
		case ev.Point != nil:
			p := ev.Point
			out.attempted++
			if p.Error != "" || p.Index < 0 || p.Index >= len(pts) {
				out.fail("batch point %d (%s/%s): %s %s", p.Index, p.Profile, p.System, p.Kind, p.Error)
				continue
			}
			jp := jobPoint{profile: pts[p.Index].Profile, spec: pts[p.Index].System, budget: budget, hash: bytesHash(p.Results)}
			if keep {
				jp.raw = p.Results
			}
			got[p.Index] = jp
			seen++
		case ev.Done != nil:
			done = ev.Done
		}
	}
	d := time.Since(t0)
	out.attempted++
	if done.State != farm.StateDone || done.Completed != len(pts) || done.Failed != 0 || seen != len(pts) {
		out.fail("batch job %s ended %s with %d/%d points (%d failed, %d streamed)",
			done.ID, done.State, done.Completed, len(pts), done.Failed, seen)
	}
	return got, d, nil
}

// hitKey is one stored point the hits ask for.
type hitKey struct {
	body []byte
	hash string
	wp   wirePoint
	res  idaflash.Results
}

// hit sends one /v1/run for a stored point and checks that it was served
// from the store, byte-identical to its computation.
func (r *farmRig) hit(rec *recorder, out *outcome, op int, k hitKey) (time.Duration, error) {
	top := rec.start("client.run", 0, op)
	t0 := time.Now()
	resp, err := r.post(rec, "/v1/run", k.body, top, op)
	if err != nil {
		rec.end(top)
		return 0, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	rec.end(top)
	if err != nil {
		return 0, err
	}
	out.attempted++
	var rr struct {
		Cached  bool            `json:"cached"`
		Results json.RawMessage `json:"results"`
	}
	switch {
	case resp.StatusCode != http.StatusOK:
		out.fail("hit %s/%+v: %s: %s", k.wp.Profile, k.wp.System, resp.Status, strings.TrimSpace(string(b)))
	case json.Unmarshal(b, &rr) != nil:
		out.fail("hit %s/%+v: undecodable response", k.wp.Profile, k.wp.System)
	case !rr.Cached:
		out.fail("hit %s/%+v: not served from the result store", k.wp.Profile, k.wp.System)
	case bytesHash(rr.Results) != k.hash:
		out.fail("hit %s/%+v: results differ from the stored computation", k.wp.Profile, k.wp.System)
	}
	return d, nil
}

// farmRun holds the farm-batch state across set-up and timed cycles.
type farmRun struct {
	cfg    config
	rec    *recorder
	out    *outcome
	rig    *farmRig
	hits   []hitKey
	offset int
	// points are every timed batch point, for the digest and reference
	// checks.
	points []jobPoint
}

// setup starts a fresh rig and stores the hit set: the eleven paper
// profiles under the baseline and IDA-E20, computed by one batch job.
func (f *farmRun) setup(rep int) error {
	rig, err := startRig(f.cfg, rep, f.rec)
	if err != nil {
		return err
	}
	f.rig = rig
	var pts []wirePoint
	for _, p := range idaflash.PaperProfiles(0) {
		for _, s := range jobSystems {
			pts = append(pts, wirePoint{p.Name, s})
		}
	}
	budget := hitRequests + f.offset
	got, _, err := rig.batch(f.rec, f.out, -1, budget, pts, true)
	if err != nil {
		return fmt.Errorf("storing the hit set: %w", err)
	}
	f.hits = f.hits[:0]
	for _, jp := range got {
		body, err := json.Marshal(server.RunRequest{Profile: jp.profile, Requests: budget, System: jp.spec})
		if err != nil {
			return err
		}
		k := hitKey{body: body, hash: jp.hash, wp: wirePoint{jp.profile, jp.spec}}
		if err := json.Unmarshal(jp.raw, &k.res); err != nil {
			return fmt.Errorf("decoding hit-set result: %w", err)
		}
		f.hits = append(f.hits, k)
	}
	return nil
}

// cycle runs one closed-loop cycle: a batch job of fresh points, then the
// hits.
func (f *farmRun) cycle(c int, ph *phase, peak *heapPeak) ([]jobPoint, error) {
	var pts []wirePoint
	for _, name := range jobProfiles {
		for _, s := range jobSystems {
			pts = append(pts, wirePoint{name, s})
		}
	}
	budget := jobRequests + f.offset + c
	if f.rec.on.Load() {
		for _, wp := range pts {
			f.timeKey(c, wp, budget)
		}
	}
	// A traced phase keeps the payloads for the simulated counts.
	got, d, err := f.rig.batch(f.rec, f.out, c, budget, pts, f.rec.on.Load())
	if err != nil {
		return nil, err
	}
	ph.jobs = append(ph.jobs, d)
	ph.points += len(pts)
	peak.observe()
	for h := 0; h < hitsPerCycle; h++ {
		k := f.hits[(c*hitsPerCycle+h)%len(f.hits)]
		if f.rec.on.Load() {
			f.timeKey(c, k.wp, hitRequests+f.offset)
		}
		d, err := f.rig.hit(f.rec, f.out, c, k)
		if err != nil {
			return nil, err
		}
		ph.hits = append(ph.hits, d)
	}
	peak.observe()
	return got, nil
}

// timeKey times the canonical run key of a point, as the server derives it
// for the result store.
func (f *farmRun) timeKey(op int, wp wirePoint, budget int) {
	p, err := idaflash.ProfileByName(wp.Profile, budget)
	if err != nil {
		f.out.fail("key %s: %v", wp.Profile, err)
		return
	}
	sp := f.rec.start("experiments.Key", 0, op)
	_, err = experiments.Key(p, systemFor(wp.System))
	f.rec.end(sp)
	if err != nil {
		f.out.fail("key %s: %v", wp.Profile, err)
	}
}

// timed runs cycles from the given index on.
func (f *farmRun) timed(from, cycles int) (phase, []jobPoint, error) {
	runtime.GC()
	peak := newHeapPeak()
	ph := phase{spanFrom: f.rec.len()}
	var pts []jobPoint
	c0 := readCounters()
	t0 := time.Now()
	for c := from; c < from+cycles; c++ {
		got, err := f.cycle(c, &ph, peak)
		if err != nil {
			return ph, nil, fmt.Errorf("cycle %d: %w", c, err)
		}
		pts = append(pts, got...)
	}
	ph.wall = time.Since(t0)
	ph.cost = readCounters().sub(c0)
	ph.covered = f.rec.topLevel(ph.spanFrom)
	ph.peakHeap = peak.max
	return ph, pts, nil
}

// runFarm measures the farm-batch workload.
func runFarm(cfg config, rec *recorder) (*outcome, error) {
	out := newOutcome()
	f := &farmRun{cfg: cfg, rec: rec, out: out, offset: seedOffset(cfg.seed)}
	for rep := 0; rep < cfg.setupReps(); rep++ {
		if f.rig != nil {
			if err := f.rig.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if err := f.setup(rep); err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(t0))
	}
	defer func() {
		if err := f.rig.stop(); err != nil {
			out.fail("stopping the server: %v", err)
		}
	}()

	cycles := units(cfg.seconds, cyclesPerSecond, leastCycles)
	if !cfg.trace {
		ph, pts, err := f.timed(0, cycles)
		if err != nil {
			return nil, err
		}
		out.phase, f.points = ph, pts
	} else {
		// Traced slices run the cycle indexes after the untraced ones, so
		// their keys are fresh too and the untraced cycles are those of an
		// untraced run.
		var tpts []jobPoint
		ph, tph, err := interleave(rec, traceSlices, func(i int, traced bool) (phase, error) {
			lo, hi := i*cycles/traceSlices, (i+1)*cycles/traceSlices
			if traced {
				ph, pts, err := f.timed(cycles+lo, hi-lo)
				tpts = append(tpts, pts...)
				return ph, err
			}
			ph, pts, err := f.timed(lo, hi-lo)
			f.points = append(f.points, pts...)
			return ph, err
		})
		if err != nil {
			return nil, err
		}
		out.phase, out.traced = ph, &tph
		f.layerMetrics(tph, tpts)
	}
	f.digest()
	f.reference()
	base, e20 := make(map[string]float64), make(map[string]float64)
	for _, k := range f.hits {
		v := k.res.MeanReadResponse.Seconds()
		if k.wp.System.IDA {
			e20[k.wp.Profile] = v
		} else {
			base[k.wp.Profile] = v
		}
	}
	out.paperErr, out.paperErrOK = reductionErr(base, e20)
	return out, nil
}

// digest covers the hit set and the first leastCycles jobs, which every run
// of a seed computes identically.
func (f *farmRun) digest() {
	var hs []string
	for _, k := range f.hits {
		hs = append(hs, k.hash)
	}
	for _, jp := range f.points[:leastCycles*len(jobProfiles)*len(jobSystems)] {
		hs = append(hs, jp.hash)
	}
	f.out.digest = digestOf(hs)
}

// reference re-runs a seed-chosen few hit-set and batch points in process
// on fresh, fully replayed devices and compares them with what the server
// served.
func (f *farmRun) reference() {
	type check struct {
		wp     wirePoint
		budget int
		hash   string
	}
	var checks []check
	for k := 0; k < referenceChecks; k++ {
		i := int((f.cfg.seed*7919 + int64(k)*104729) % int64(len(f.hits)))
		j := int((f.cfg.seed*104729 + int64(k)*7919) % int64(len(f.points)))
		if i < 0 {
			i += len(f.hits)
		}
		if j < 0 {
			j += len(f.points)
		}
		h, jp := f.hits[i], f.points[j]
		checks = append(checks,
			check{h.wp, hitRequests + f.offset, h.hash},
			check{wirePoint{jp.profile, jp.spec}, jp.budget, jp.hash})
	}
	for _, c := range checks {
		f.out.attempted++
		p, err := idaflash.ProfileByName(c.wp.Profile, c.budget)
		if err != nil {
			f.out.fail("reference %s: %v", c.wp.Profile, err)
			continue
		}
		sys := systemFor(c.wp.System)
		sys.NoSnapshot, sys.NoPool = true, true
		res, err := idaflash.RunWorkload(p, sys)
		switch {
		case err != nil:
			f.out.fail("reference %s/%s@%d: %v", c.wp.Profile, sys.Name, c.budget, err)
		case resultHash(res) != c.hash:
			f.out.fail("reference %s/%s@%d: replayed device differs from the served result", c.wp.Profile, sys.Name, c.budget)
		}
	}
}

// layerMetrics derives the per-layer figures of a traced farm phase.
func (f *farmRun) layerMetrics(tph phase, pts []jobPoint) {
	lm, rec, from := f.out.layer, f.rec, tph.spanFrom
	lm["results.fs_read_ms"] = rec.since(from, "results.FS.ReadFile").mean()
	lm["results.fs_write_ms"] = rec.since(from, "results.FS.WriteFile").mean()
	if st := f.rig.srv.ResultStore().Stats(); st.Hits+st.Misses > 0 {
		lm["results.hit_ratio"] = float64(st.Hits) / float64(st.Hits+st.Misses)
	}
	lm["experiments.key_us"] = rec.since(from, "experiments.Key").mean() * 1e3
	lm["farm.accept_ms"] = rec.since(from, "farm.accept").mean()
	client, handler := rec.hitSpans(from)
	lm["server.handler_ms"] = handler.mean()
	lm["server.transport_ms"] = client.mean() - handler.mean()
	st := idaflash.ArenaStats()
	if st.Hits+st.Misses > 0 {
		lm["runpool.hit_ratio"] = float64(st.Hits) / float64(st.Hits+st.Misses)
	}

	res := make([]pointResult, 0, len(pts))
	for _, jp := range pts {
		var r idaflash.Results
		if err := json.Unmarshal(jp.raw, &r); err != nil {
			f.out.fail("decoding a batch result: %v", err)
			continue
		}
		res = append(res, pointResult{res: r})
	}
	simCounts(f.out, res)

	// The aged states the jobs captured, as the disk tier holds them.
	var states []*snapshot.DeviceState
	entries, err := os.ReadDir(f.rig.dir)
	if err != nil {
		f.out.fail("listing the store: %v", err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), idaflash.ExtSnapshot) {
			continue
		}
		b, err := os.ReadFile(filepath.Join(f.rig.dir, e.Name()))
		if err != nil {
			continue // evicted since the listing
		}
		if st, err := snapshot.Decode(b); err == nil {
			states = append(states, st)
		}
	}
	codecMetrics(rec, f.out, states)
}
