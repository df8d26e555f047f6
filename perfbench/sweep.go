package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"idaflash"
	"idaflash/internal/runpool"
	"idaflash/internal/snapshot"
	"idaflash/internal/workload"
)

// point is one (profile, system) simulation.
type point struct {
	profile idaflash.Profile
	system  idaflash.System
}

// sweepSpec is a serial sweep through idaflash.RunWorkload: every pass runs
// every point once, in order.
type sweepSpec struct {
	points []point
	// passesPerSecond sizes the timed phase: --seconds s runs
	// round(s * passesPerSecond) passes (at least two, so every point is
	// checked against an earlier pass). It was calibrated on a 2-vCPU Xeon;
	// the work is fixed by the arguments, never by the clock.
	passesPerSecond float64
}

// Request budget per trace. The sweeps run at a quarter of the
// experiments' default budget: long enough that the timed replay dominates
// each point, short enough for several passes per run.
const sweepRequests = 10000

var fig8ErrorRates = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}

// variantProfiles returns every profile under the given number of trace
// seeds derived from the workload seed. One trace seed per profile makes a
// run's cost depend on the seed by up to a fifth (refresh and GC activity
// vary from trace to trace); averaging several keeps the run-to-run spread
// of the per-point metrics within their bounds. Seed 1's first variant is
// the library's built-in profile seed.
func variantProfiles(ps []idaflash.Profile, seed int64, variants int) []idaflash.Profile {
	var out []idaflash.Profile
	for v := 0; v < variants; v++ {
		for _, p := range ps {
			p.Seed += ((seed-1)*int64(variants) + int64(v)) * 100_000
			out = append(out, p)
		}
	}
	return out
}

// fig8Sweep is the Figure 8 point set: the eleven paper profiles under the
// baseline and IDA-E0 through IDA-E80, each profile under five trace seeds.
func fig8Sweep(seed int64) sweepSpec {
	systems := []idaflash.System{idaflash.Baseline()}
	for _, e := range fig8ErrorRates {
		systems = append(systems, idaflash.IDA(e))
	}
	var pts []point
	for _, p := range variantProfiles(idaflash.PaperProfiles(sweepRequests), seed, 5) {
		for _, s := range systems {
			pts = append(pts, point{p, s})
		}
	}
	return sweepSpec{points: pts, passesPerSecond: 0.12}
}

// ageWriteProfiles are the write-heavy and mixed profiles: the paper's
// three lowest read ratios plus the three most write-heavy extras.
var ageWriteProfiles = []string{"src1_0", "stg_1", "usr_2", "rr70", "rr65", "rr60"}

// ageWriteSweep re-ages every point's device from scratch: snapshot reuse
// is off, so prefill, the aging preamble and warmup run every time. Write
// activity varies more from trace to trace than reads do, hence sixteen
// trace seeds per profile.
func ageWriteSweep(seed int64) (sweepSpec, error) {
	var ps []idaflash.Profile
	for _, name := range ageWriteProfiles {
		p, err := idaflash.ProfileByName(name, sweepRequests)
		if err != nil {
			return sweepSpec{}, err
		}
		ps = append(ps, p)
	}
	var pts []point
	for _, p := range variantProfiles(ps, seed, 16) {
		for _, s := range []idaflash.System{idaflash.Baseline(), idaflash.IDA(0.2)} {
			s.NoSnapshot = true
			pts = append(pts, point{p, s})
		}
	}
	return sweepSpec{points: pts, passesPerSecond: 0.185}, nil
}

// resetCaches replaces the facade's process-wide trace cache, snapshot
// store and device arena with empty ones, so each set-up repetition pays
// the full set-up cost again.
func resetCaches() {
	workload.DefaultTraceCache = workload.NewTraceCache(0)
	idaflash.DefaultSnapshots = snapshot.NewStore(0)
	idaflash.DefaultArena = runpool.New(0)
}

// sweepRun holds one sweep's state across set-up and timed passes.
type sweepRun struct {
	spec  sweepSpec
	rec   *recorder
	out   *outcome
	snaps *snapshot.Store // the traced path's snapshot store
	keys  map[string]bool // the traced path's snapshot keys
	// traceCalls and traceHits count the traced path's trace-cache
	// lookups; a lookup that grew the cache was a miss.
	traceCalls, traceHits int
}

// warm fills the trace cache, the snapshot store and the arena by running
// the first point of every profile. Without snapshots there is nothing to
// capture, so one run per profile name parks a device of its shape (the
// shape does not depend on the trace seed) and the other trace seeds only
// have their traces made.
func (r *sweepRun) warm(traced bool) error {
	seen := make(map[idaflash.Profile]bool)
	parked := make(map[string]bool)
	for i, pt := range r.spec.points {
		if seen[pt.profile] {
			continue
		}
		seen[pt.profile] = true
		if pt.system.NoSnapshot && parked[pt.profile.Name] {
			if _, _, err := r.traces(0, i, pt.profile); err != nil {
				return fmt.Errorf("set-up %s: %w", pt.profile.Name, err)
			}
			continue
		}
		parked[pt.profile.Name] = true
		if _, err := r.run(i, pt, traced); err != nil {
			return fmt.Errorf("set-up %s/%s: %w", pt.profile.Name, pt.system.Name, err)
		}
	}
	return nil
}

// traces looks a profile's traces up in the facade's trace cache under a
// span. A lookup that grew the cache generated them: its span is named
// apart, so generation time is not averaged with hits.
func (r *sweepRun) traces(parent, op int, p idaflash.Profile) (tr, pre *idaflash.Trace, err error) {
	before := workload.DefaultTraceCache.Len()
	sp := r.rec.start("workload.Traces", parent, op)
	tr, pre, err = workload.DefaultTraceCache.Traces(p)
	r.traceCalls++
	if workload.DefaultTraceCache.Len() == before {
		r.traceHits++
		r.rec.end(sp)
	} else {
		r.rec.endAs(sp, "workload.Traces.generate")
	}
	return tr, pre, err
}

// run runs one point through RunWorkload, or through the traced path.
func (r *sweepRun) run(op int, pt point, traced bool) (idaflash.Results, error) {
	if traced {
		return r.runTraced(op, pt)
	}
	return idaflash.RunWorkload(pt.profile, pt.system)
}

// runTraced is RunWorkload taken apart into the layer calls it makes, each
// under its own span: configuration, trace cache, arena checkout, the
// device run (snapshot restore or aging, then the timed replay) and the
// arena return. Its results must hash the same as RunWorkload's.
func (r *sweepRun) runTraced(op int, pt point) (idaflash.Results, error) {
	top := r.rec.start("point", 0, op)
	defer r.rec.end(top)

	sp := r.rec.start("idaflash.BuildConfig", top, op)
	cfg, np, err := idaflash.BuildConfig(pt.profile, pt.system)
	r.rec.end(sp)
	if err != nil {
		return idaflash.Results{}, err
	}

	tr, pre, err := r.traces(top, op, np)
	if err != nil {
		return idaflash.Results{}, err
	}

	sp = r.rec.start("runpool.Get", top, op)
	dev, err := idaflash.DefaultArena.Get(cfg)
	r.rec.end(sp)
	if err != nil {
		return idaflash.Results{}, err
	}

	opts := idaflash.RunOptions{Preamble: pre}
	if !pt.system.NoSnapshot {
		// Every system of a profile shares one aged state, as in the
		// facade: the state depends on the profile and the device shape.
		b, err := json.Marshal(struct {
			P idaflash.Profile
			G idaflash.Geometry
		}{np, cfg.Geometry})
		if err != nil {
			return idaflash.Results{}, err
		}
		opts.Snapshots, opts.SnapshotKey = r.snaps, string(b)
		r.keys[string(b)] = true
	}
	sp = r.rec.start("ssd.RunContext", top, op)
	res, err := dev.RunContext(context.Background(), tr, opts)
	r.rec.end(sp)
	if err != nil {
		return res, err
	}

	sp = r.rec.start("runpool.Put", top, op)
	idaflash.DefaultArena.Put(dev)
	r.rec.end(sp)
	return res, nil
}

// pass runs points lo to hi-1 once and appends their outcomes to results.
func (r *sweepRun) pass(lo, hi int, traced bool, results *[]pointResult, peak *heapPeak) {
	for i := lo; i < hi; i++ {
		res, err := r.run(i, r.spec.points[i], traced)
		*results = append(*results, pointResult{res: res.Scalars(), err: err})
		peak.observe()
	}
}

// pointResult is one timed point's outcome, checked after the timed phase.
type pointResult struct {
	res idaflash.Results
	err error
}

// timed runs the timed phase over points lo to hi-1: passes serial passes,
// each a unit of the job metrics.
func (r *sweepRun) timed(lo, hi, passes int, traced bool) (phase, []pointResult) {
	results := make([]pointResult, 0, passes*(hi-lo))
	runtime.GC()
	peak := newHeapPeak()
	ph := phase{spanFrom: r.rec.len()}
	c0 := readCounters()
	t0 := time.Now()
	for p := 0; p < passes; p++ {
		ps := time.Now()
		r.pass(lo, hi, traced, &results, peak)
		d := time.Since(ps)
		ph.jobs = append(ph.jobs, d)
		ph.hits = append(ph.hits, d/time.Duration(hi-lo))
	}
	ph.wall = time.Since(t0)
	ph.cost = readCounters().sub(c0)
	ph.covered = r.rec.topLevel(ph.spanFrom)
	ph.points = len(results)
	ph.peakHeap = peak.max
	return ph, results
}

// runSweep measures one sweep workload.
func runSweep(cfg config, spec sweepSpec, rec *recorder) (*outcome, error) {
	out := newOutcome()
	r := &sweepRun{spec: spec, rec: rec, out: out}
	for rep := 0; rep < cfg.setupReps(); rep++ {
		t0 := time.Now()
		resetCaches()
		r.snaps, r.keys = snapshot.NewStore(0), make(map[string]bool)
		r.traceCalls, r.traceHits = 0, 0
		if cfg.trace {
			// The traced path keeps its own snapshot keys, so it is
			// warmed too; its spans time the trace generation.
			rec.on.Store(true)
			err := r.warm(true)
			rec.on.Store(false)
			if err != nil {
				return nil, err
			}
		}
		if err := r.warm(false); err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(t0))
	}

	passes := units(cfg.seconds, spec.passesPerSecond, 2)
	n := len(spec.points)
	var results, tresults []pointResult
	if !cfg.trace {
		out.phase, results = r.timed(0, n, passes, false)
	} else {
		// Each pass is cut into traceSlices slices of points; every slice
		// runs untraced and traced.
		ph, tph, _ := interleave(rec, passes*traceSlices, func(i int, traced bool) (phase, error) {
			s := i % traceSlices
			ph, res := r.timed(s*n/traceSlices, (s+1)*n/traceSlices, 1, traced)
			if traced {
				tresults = append(tresults, res...)
			} else {
				results = append(results, res...)
			}
			return ph, nil
		})
		ph.foldPasses(traceSlices, n)
		tph.foldPasses(traceSlices, n)
		out.phase, out.traced = ph, &tph
	}
	ref := r.check(results)
	if cfg.trace {
		r.checkAgainst(tresults, ref)
		r.layerMetrics(*out.traced, tresults)
	}
	out.digest = digestOf(ref)
	r.reference(ref, cfg.seed)
	out.paperErr, out.paperErrOK = paperErr(r.spec.points, results[:len(r.spec.points)])
	return out, nil
}

// check verifies every timed result: no errors, and every pass hashes the
// same as the first. It returns the first pass's hashes.
func (r *sweepRun) check(results []pointResult) []string {
	n := len(r.spec.points)
	ref := make([]string, n)
	for i := range ref {
		if results[i].err == nil {
			ref[i] = resultHash(results[i].res)
		}
	}
	r.checkAgainst(results, ref)
	return ref
}

// checkAgainst counts each result as attempted, and as failed when it
// errored or its hash differs from the reference for its point.
func (r *sweepRun) checkAgainst(results []pointResult, ref []string) {
	n := len(r.spec.points)
	for i, pr := range results {
		pt := r.spec.points[i%n]
		r.out.attempted++
		switch {
		case pr.err != nil:
			r.out.fail("%s/%s pass %d: %v", pt.profile.Name, pt.system.Name, i/n, pr.err)
		case ref[i%n] == "":
			r.out.fail("%s/%s pass %d: no reference (first pass failed)", pt.profile.Name, pt.system.Name, i/n)
		case resultHash(pr.res) != ref[i%n]:
			r.out.fail("%s/%s pass %d: results differ from the first pass", pt.profile.Name, pt.system.Name, i/n)
		}
	}
}

// referenceChecks is how many points are re-run outside the timed phase
// without snapshots or the arena, as an independent reference.
const referenceChecks = 3

// reference re-runs a seed-chosen few points on fresh, fully replayed
// devices and compares them with the timed results.
func (r *sweepRun) reference(ref []string, seed int64) {
	n := len(r.spec.points)
	for k := 0; k < referenceChecks; k++ {
		i := int((seed*7919 + int64(k)*104729) % int64(n))
		if i < 0 {
			i += n
		}
		pt := r.spec.points[i]
		sys := pt.system
		sys.NoSnapshot, sys.NoPool = true, true
		res, err := idaflash.RunWorkload(pt.profile, sys)
		r.out.attempted++
		switch {
		case err != nil:
			r.out.fail("reference %s/%s: %v", pt.profile.Name, pt.system.Name, err)
		case resultHash(res) != ref[i]:
			r.out.fail("reference %s/%s: replayed device differs from the timed run", pt.profile.Name, pt.system.Name)
		}
	}
}

// paperReduction is the Figure 8 reference figure: IDA-E20 cuts the mean
// read response by 28% on average (quoted in experiments.Figure8's note).
const paperReduction = 28.0

// paperErr is the distance in percentage points between the points' average
// IDA-E20 read-response reduction, per profile against its baseline, and
// the paper's 28%. ok is false when the points hold no such pair.
func paperErr(pts []point, results []pointResult) (float64, bool) {
	base := make(map[idaflash.Profile]float64)
	e20 := make(map[idaflash.Profile]float64)
	for i, pt := range pts {
		if results[i].err != nil {
			continue
		}
		v := results[i].res.MeanReadResponse.Seconds()
		switch {
		case !pt.system.IDA:
			base[pt.profile] = v
		case pt.system.ErrorRate == 0.2:
			e20[pt.profile] = v
		}
	}
	return reductionErr(base, e20)
}

func reductionErr[K comparable](base, e20 map[K]float64) (float64, bool) {
	var sum float64
	n := 0
	for name, b := range base {
		if e, ok := e20[name]; ok && b > 0 {
			sum += 100 * (1 - e/b)
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	d := sum/float64(n) - paperReduction
	if d < 0 {
		d = -d
	}
	return d, true
}

// layerMetrics derives the host-time figures of a traced sweep.
func (r *sweepRun) layerMetrics(tph phase, results []pointResult) {
	lm := r.out.layer
	var events uint64
	for _, pr := range results {
		events += pr.res.Events
	}
	run := r.rec.since(tph.spanFrom, "ssd.RunContext")
	lm["ssd.run_ms"] = run.mean()
	if events > 0 {
		lm["ssd.ns_per_event"] = float64(run.total.Nanoseconds()) / float64(events)
	}
	lm["runpool.get_ms"] = r.rec.since(tph.spanFrom, "runpool.Get").mean()
	st := idaflash.ArenaStats()
	if st.Hits+st.Misses > 0 {
		lm["runpool.hit_ratio"] = float64(st.Hits) / float64(st.Hits+st.Misses)
	}
	lm["workload.traces_ms"] = r.rec.since(0, "workload.Traces.generate").mean()
	if r.traceCalls > 0 {
		lm["workload.trace_hit_ratio"] = float64(r.traceHits) / float64(r.traceCalls)
	}
	simCounts(r.out, results)
	r.snapshotCodec()
}

// snapshotCodec times snapshot.Encode and Decode on every aged state the
// traced path captured, and checks that each decodes to a state that
// encodes to the same bytes.
func (r *sweepRun) snapshotCodec() {
	var states []*snapshot.DeviceState
	for key := range r.keys {
		st, publish, err := r.snaps.Get(context.Background(), key)
		if publish != nil {
			publish(nil)
		}
		if err == nil && st != nil {
			states = append(states, st)
		}
	}
	codecMetrics(r.rec, r.out, states)
}

// codecMetrics times the snapshot codec on captured states.
func codecMetrics(rec *recorder, out *outcome, states []*snapshot.DeviceState) {
	if len(states) == 0 {
		return
	}
	var bytes int
	for i, st := range states {
		sp := rec.start("snapshot.Encode", 0, -1-i)
		b, err := snapshot.Encode(st)
		rec.end(sp)
		out.attempted++
		if err != nil {
			out.fail("snapshot encode: %v", err)
			continue
		}
		sp = rec.start("snapshot.Decode", 0, -1-i)
		dec, err := snapshot.Decode(b)
		rec.end(sp)
		if err != nil {
			out.fail("snapshot decode: %v", err)
			continue
		}
		if again, err := snapshot.Encode(dec); err != nil || string(again) != string(b) {
			out.fail("snapshot round trip changed the encoding")
		}
		bytes += len(b)
	}
	out.layer["snapshot.encode_ms"] = rec.since(0, "snapshot.Encode").mean()
	out.layer["snapshot.decode_ms"] = rec.since(0, "snapshot.Decode").mean()
	out.layer["snapshot.state_mb"] = float64(bytes) / (1 << 20) / float64(len(states))
}
