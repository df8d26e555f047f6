// Command perfbench is the repository benchmark: it drives the simulator
// through its public entry points on a fixed workload, checks every result,
// and prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) as one JSON object on the last line of standard output. A human
// report and the host fingerprint go to standard error and, with the spans
// of a traced run, to files under .bench_build/perfbench.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload fig8-warm --seed 1 --seconds 10 --trace 0
//
// Workloads: fig8-warm, age-write, farm-batch (see perfbench/README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed whose result digests are committed in
// digests.json.
const defaultSeed = 1

type config struct {
	workload     string
	seed         int64
	seconds      int
	trace        bool
	workDir      string
	digests      string
	writeDigests bool
}

// setupReps is how many times a workload builds its set-up from empty
// caches; setup_s is the median. A traced run does not report setup_s and
// builds it once.
func (c config) setupReps() int {
	if c.trace {
		return 1
	}
	return 5
}

// phase is one timed phase's measurements.
type phase struct {
	wall     time.Duration
	points   int
	cost     procCounters
	peakHeap uint64
	// jobs are the workload's identical units of client work: sweep
	// passes, or farm-batch batch jobs.
	jobs []time.Duration
	// hits are farm-batch's result-store hits; on the sweeps, each pass's
	// time per point.
	hits []time.Duration
	// spanFrom is the recorder length when the phase began, and covered
	// the time its top-level spans took.
	spanFrom int
	covered  time.Duration
}

// add accumulates a later slice of the same phase; spanFrom stays.
func (p *phase) add(o phase) {
	p.wall += o.wall
	p.points += o.points
	p.cost = p.cost.add(o.cost)
	p.peakHeap = max(p.peakHeap, o.peakHeap)
	p.jobs = append(p.jobs, o.jobs...)
	p.hits = append(p.hits, o.hits...)
	p.covered += o.covered
}

// foldPasses turns the slice times of an interleaved sweep phase, slices
// per pass of points each, back into pass times and per-point pass times.
func (p *phase) foldPasses(slices, points int) {
	var jobs, hits []time.Duration
	for i := 0; i+slices <= len(p.jobs); i += slices {
		var d time.Duration
		for _, s := range p.jobs[i : i+slices] {
			d += s
		}
		jobs = append(jobs, d)
		hits = append(hits, d/time.Duration(points))
	}
	p.jobs, p.hits = jobs, hits
}

// traceSlices is how many slices of each untraced and traced phase a traced
// run alternates: per pass on the sweeps, per run on farm-batch.
const traceSlices = 10

// interleave runs a traced measurement's two timed phases in alternating
// slices, so that drift in host speed falls on both alike and their
// difference is the tracing overhead. slice runs slice i of one phase.
// Recording stays on afterwards.
func interleave(rec *recorder, slices int, slice func(i int, traced bool) (phase, error)) (untraced, traced phase, err error) {
	traced.spanFrom = rec.len()
	for i := 0; i < slices; i++ {
		// Odd slices run traced first, so that what the second run of a
		// slice gains from the first (warm caches) falls on both alike.
		for _, tr := range [2]bool{i%2 == 1, i%2 == 0} {
			rec.on.Store(tr)
			ph, err := slice(i, tr)
			rec.on.Store(false)
			if err != nil {
				return untraced, traced, err
			}
			if tr {
				traced.add(ph)
			} else {
				untraced.add(ph)
			}
		}
	}
	rec.on.Store(true)
	return untraced, traced, nil
}

// outcome is everything one workload run measured and checked.
type outcome struct {
	setup      []time.Duration
	phase      phase
	traced     *phase
	attempted  int
	failed     int
	failures   []string
	digest     string
	paperErr   float64
	paperErrOK bool
	layer      map[string]float64
	layerTimes []layerTime
}

func newOutcome() *outcome { return &outcome{layer: make(map[string]float64)} }

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// units sizes a timed phase from --seconds.
func units(seconds int, perSecond float64, least int) int {
	n := int(float64(seconds)*perSecond + 0.5)
	if n < least {
		n = least
	}
	return n
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// reported is a metric plus the sample count behind it, for the report.
type reported struct {
	name    string
	metric  metric
	samples int
	note    string
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "fig8-warm, age-write or farm-batch")
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "workload seed: profile seeds and farm-batch request budgets derive from it")
	flag.IntVar(&cfg.seconds, "seconds", 10, "timed-phase size, calibrated to about this many seconds on a 2-vCPU host")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced measurement and reports per-layer metrics")
	flag.StringVar(&cfg.workDir, "work-dir", filepath.Join(".bench_build", "perfbench"), "directory for reports, spans and the farm's store")
	flag.StringVar(&cfg.digests, "digests", filepath.Join("perfbench", "digests.json"), "committed result digests for the default seed")
	flag.BoolVar(&cfg.writeDigests, "write-digests", false, "record this run's digest in the digests file instead of checking it")
	flag.Parse()
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if cfg.seconds < 1 {
		fatalf("--seconds must be positive")
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fatalf("%v", err)
	}

	rec := newRecorder()
	var out *outcome
	var err error
	switch cfg.workload {
	case "fig8-warm":
		out, err = runSweep(cfg, fig8Sweep(cfg.seed), rec)
	case "age-write":
		var spec sweepSpec
		if spec, err = ageWriteSweep(cfg.seed); err == nil {
			out, err = runSweep(cfg, spec, rec)
		}
	case "farm-batch":
		out, err = runFarm(cfg, rec)
	default:
		fatalf("unknown --workload %q (fig8-warm, age-write, farm-batch)", cfg.workload)
	}
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	checkDigest(cfg, out)
	stem := filepath.Join(cfg.workDir, fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, trace))
	if cfg.trace {
		traceMetrics(out)
		out.layerTimes = rec.layers()
		if err := rec.write(stem + ".spans.json"); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		}
	}
	emit(cfg, out, stem)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// checkDigest compares the run's result digest with the committed one for
// the default seed, or records it with --write-digests.
func checkDigest(cfg config, out *outcome) {
	if cfg.seed != defaultSeed {
		return
	}
	digests := make(map[string]string)
	if b, err := os.ReadFile(cfg.digests); err == nil {
		if err := json.Unmarshal(b, &digests); err != nil {
			fatalf("%s: %v", cfg.digests, err)
		}
	} else if !cfg.writeDigests {
		fatalf("reading committed digests: %v", err)
	}
	if cfg.writeDigests {
		digests[cfg.workload] = out.digest
		b, err := json.MarshalIndent(digests, "", "  ")
		if err != nil {
			fatalf("%v", err)
		}
		if err := os.WriteFile(cfg.digests, append(b, '\n'), 0o644); err != nil {
			fatalf("%v", err)
		}
		return
	}
	out.attempted++
	if want := digests[cfg.workload]; want != out.digest {
		out.fail("result digest %s differs from the committed %q", out.digest, want)
	}
}

// endToEnd derives the end-to-end metrics of the untraced phase.
func endToEnd(cfg config, out *outcome) []reported {
	ph := out.phase
	n := float64(ph.points)
	setup := durationsMs(out.setup)
	jobs := durationsMs(ph.jobs)
	hits := durationsMs(ph.hits)
	p90, beyond := quantile(append([]float64(nil), jobs...), 0.9)
	jobUnit, hitUnit := "pass", "pass, per point"
	if cfg.workload == "farm-batch" {
		jobUnit, hitUnit = "batch job", "/v1/run hit"
	}
	rs := []reported{
		{name: "setup_s", metric: metric{median(setup) / 1e3, "s"}, samples: len(setup), note: "set-up from empty caches, median"},
		{name: "points_per_s", metric: metric{n / ph.wall.Seconds(), "1/s"}, samples: ph.points},
		{name: "cpu_ms_per_point", metric: metric{ms(ph.cost.cpu) / n, "ms"}, samples: ph.points, note: "user+sys, all threads"},
		{name: "alloc_mb_per_point", metric: metric{float64(ph.cost.alloc) / (1 << 20) / n, "MB"}, samples: ph.points},
		{name: "peak_heap_mb", metric: metric{float64(ph.peakHeap) / (1 << 20), "MB"}, samples: ph.points, note: "largest live heap at a GC mark"},
		{name: "job_p50_ms", metric: metric{median(jobs), "ms"}, samples: len(jobs), note: jobUnit},
		{name: "hit_p50_ms", metric: metric{median(hits), "ms"}, samples: len(hits), note: hitUnit},
	}
	if cfg.workload == "farm-batch" {
		rs = append(rs, reported{name: "job_p90_ms", metric: metric{p90, "ms"}, samples: len(jobs),
			note: fmt.Sprintf("%d jobs beyond it; report only", beyond)})
	}
	if out.paperErrOK {
		rs = append(rs, reported{name: "paper_err_pct", metric: metric{out.paperErr, "pp"}, samples: 1,
			note: "IDA-E20 reduction vs the paper's 28%; report only"})
	}
	failPct := 0.0
	if out.attempted > 0 {
		failPct = 100 * float64(out.failed) / float64(out.attempted)
	}
	rs = append(rs, reported{name: "fail_pct", metric: metric{failPct, "%"}, samples: out.attempted,
		note: "report only; see failed/attempted"})
	return rs
}

// reportOnly are metrics printed in the report but left out of the JSON
// line: they are not defined on every workload, can be zero, or depend on
// the seed more than on the program.
var reportOnly = map[string]bool{"job_p90_ms": true, "paper_err_pct": true, "fail_pct": true}

// layerUnits names every per-layer metric with its unit. Every traced run
// reports all of them; a layer the benchmark does not call on a workload
// reads 0.
var layerUnits = map[string]string{
	"ssd.run_ms":                     "ms",
	"ssd.ns_per_event":               "ns",
	"runtime.gc_cpu_pct":             "%",
	"runtime.gc_cycles_per_point":    "count",
	"runpool.get_ms":                 "ms",
	"runpool.hit_ratio":              "ratio",
	"workload.traces_ms":             "ms",
	"workload.trace_hit_ratio":       "ratio",
	"snapshot.encode_ms":             "ms",
	"snapshot.decode_ms":             "ms",
	"snapshot.state_mb":              "MB",
	"results.fs_read_ms":             "ms",
	"results.fs_write_ms":            "ms",
	"results.hit_ratio":              "ratio",
	"experiments.key_us":             "us",
	"experiments.paper_err_pct":      "pp",
	"server.handler_ms":              "ms",
	"server.transport_ms":            "ms",
	"farm.accept_ms":                 "ms",
	"sim.events_per_point":           "count",
	"ftl.gc_moves_per_point":         "count",
	"ftl.refresh_pages_per_point":    "count",
	"ftl.ida_adjusted_wls_per_point": "count",
	"flash.read_cmds_per_point":      "count",
	"ecc.retry_rounds_per_point":     "count",
	"ssd.die_util_pct":               "%",
	"ssd.host_queue_wait_us":         "us",
	"trace.overhead_pct":             "%",
	"trace.coverage_pct":             "%",
	"trace.points_per_s":             "1/s",
}

// traceMetrics fills the per-layer figures every workload derives the same
// way: GC accounting, span coverage and tracing overhead.
func traceMetrics(out *outcome) {
	t := out.traced
	lm := out.layer
	if t.cost.totalCPU > 0 {
		lm["runtime.gc_cpu_pct"] = 100 * t.cost.gcCPU / t.cost.totalCPU
	}
	lm["runtime.gc_cycles_per_point"] = float64(t.cost.gcCycles) / float64(t.points)
	lm["trace.coverage_pct"] = 100 * t.covered.Seconds() / t.wall.Seconds()
	untraced := float64(out.phase.points) / out.phase.wall.Seconds()
	traced := float64(t.points) / t.wall.Seconds()
	lm["trace.points_per_s"] = traced
	lm["trace.overhead_pct"] = 100 * (untraced - traced) / untraced
	if out.paperErrOK {
		lm["experiments.paper_err_pct"] = out.paperErr
	}
}

// simCounts fills the simulated per-point counts. They are deterministic:
// a change that only speeds the simulator up leaves them identical.
func simCounts(out *outcome, results []pointResult) {
	if len(results) == 0 {
		return
	}
	var events, gcMoves, refresh, adjusted, reads, retries uint64
	var util float64
	var admitted uint64
	var wait time.Duration
	for _, pr := range results {
		r := pr.res
		events += r.Events
		gcMoves += r.FTL.GCMoves
		refresh += r.FTL.RefreshValidPages
		adjusted += r.FTL.IDAAdjustedWLs
		reads += r.Stages.Flash.ReadCommands
		retries += r.Stages.Flash.RetryRounds
		util += r.MeanDieUtilization
		admitted += r.Stages.Admission.Admitted
		wait += r.Stages.Admission.HostQueueWait
	}
	n := float64(len(results))
	lm := out.layer
	lm["sim.events_per_point"] = float64(events) / n
	lm["ftl.gc_moves_per_point"] = float64(gcMoves) / n
	lm["ftl.refresh_pages_per_point"] = float64(refresh) / n
	lm["ftl.ida_adjusted_wls_per_point"] = float64(adjusted) / n
	lm["flash.read_cmds_per_point"] = float64(reads) / n
	lm["ecc.retry_rounds_per_point"] = float64(retries) / n
	lm["ssd.die_util_pct"] = 100 * util / n
	if admitted > 0 {
		lm["ssd.host_queue_wait_us"] = float64(wait.Microseconds()) / float64(admitted)
	}
}

// emit writes the report to standard error and the report file, then the
// JSON result line to standard output.
func emit(cfg config, out *outcome, stem string) {
	fp := hostFingerprint()
	e2e := endToEnd(cfg, out)
	metrics := make(map[string]metric)
	if !cfg.trace {
		for _, r := range e2e {
			if !reportOnly[r.name] {
				metrics[r.name] = r.metric
			}
		}
	} else {
		for name, unit := range layerUnits {
			metrics[name] = metric{out.layer[name], unit}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "perfbench %s seed=%d seconds=%d trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(&b, "host: cpu=%q nproc=%d GOMAXPROCS=%d go=%s commit=%s\n", fp.CPU, fp.NumCPU, fp.GOMAXPROCS, fp.GoVersion, fp.Commit)
	fmt.Fprintf(&b, "timed phase: %d points in %.3fs, digest %s\n", out.phase.points, out.phase.wall.Seconds(), out.digest)
	fmt.Fprintf(&b, "end to end (tracing off):\n")
	for _, r := range e2e {
		fmt.Fprintf(&b, "  %-20s %12.4f %-5s n=%-6d %s\n", r.name, r.metric.Value, r.metric.Unit, r.samples, r.note)
	}
	var layers []layerTime
	if cfg.trace {
		fmt.Fprintf(&b, "per layer (traced run):\n")
		names := make([]string, 0, len(layerUnits))
		for name := range layerUnits {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&b, "  %-32s %14.4f %s\n", name, out.layer[name], layerUnits[name])
		}
		layers = out.layerTimes
		fmt.Fprintf(&b, "spans (calls, total ms, self ms):\n")
		for _, lt := range layers {
			fmt.Fprintf(&b, "  %-32s %8d %12.2f %12.2f\n", lt.Name, lt.Calls, lt.TotalMs, lt.SelfMs)
		}
	}
	fmt.Fprintf(&b, "checks: %d attempted, %d failed\n", out.attempted, out.failed)
	for _, f := range out.failures {
		fmt.Fprintf(&b, "  FAIL %s\n", f)
	}
	fmt.Fprint(os.Stderr, b.String())

	rep := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"host": fp, "digest": out.digest, "end_to_end": e2eJSON(e2e), "per_layer": out.layer,
		"spans": layers, "attempted": out.attempted, "failed": out.failed, "failures": out.failures,
	}
	if rb, err := json.MarshalIndent(rep, "", "  "); err == nil {
		if err := os.WriteFile(stem+".report.json", rb, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing report: %v\n", err)
		}
	}

	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, metrics})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

func e2eJSON(rs []reported) map[string]any {
	m := make(map[string]any, len(rs))
	for _, r := range rs {
		m[r.name] = map[string]any{"value": r.metric.Value, "unit": r.metric.Unit, "samples": r.samples}
	}
	return m
}
