// Command perfbench is the repository benchmark. It runs one named workload
// against the mapping library or an in-process regimapd, checks every answer
// for correctness, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// tracing off; with --trace 1 it carries the per-layer metrics, taken from
// traced passes that alternate with untraced ones. README.md documents the
// workloads and every metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command-line settings of one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	smoke    bool   // smallest inputs, for the self-test
	stateDir string // where determinism records persist between runs
}

// setupReps is how many times set-up runs before the measured passes, so
// that setup_s is a median over enough samples to be steady.
const setupReps = 15

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: paper-suite, race-paths, exact-certify or serve-mix")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are drawn from")
	fs.IntVar(&o.seconds, "seconds", 10, "how long to keep starting measured passes")
	fs.IntVar(&trace, "trace", 0, "1: report per-layer metrics from traced passes")
	fs.BoolVar(&o.smoke, "smoke", false, "run the workload at its smallest size")
	fs.StringVar(&o.stateDir, "state", ".bench_build/perfbench-state", "directory of the cross-run determinism records")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	setup, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	o.trace = trace == 1

	// One processor for Go code. With more, an idle processor spins
	// looking for work and runs the garbage collector's idle-time workers,
	// and how much of that lands in the process's CPU time depends on how
	// the host schedules it: serve-mix's CPU time moved by a sixth between
	// runs of the same code. The parallel paths still run nproc workers and
	// clients, interleaved.
	runtime.GOMAXPROCS(1)

	res, err := measure(setup, o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	enc.Encode(map[string]any{"record": "stamp", "stamp": stampFor(o, res)})
	if o.trace {
		enc.Encode(map[string]any{"record": "layers", "workload": o.workload, "rows": res.rows})
	}
	for _, f := range res.failures {
		fmt.Fprintf(stderr, "perfbench: %s: FAIL: %s\n", o.workload, f)
	}
	enc.Encode(result{
		Correct:   len(res.failures) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   res.metrics,
	})
	if len(res.failures) > 0 {
		return 1
	}
	return 0
}

// result is the last output line, the one a harness reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// instance is one set-up copy of a workload's inputs; a pass runs them once.
type instance interface {
	pass(ctx context.Context) *passResult
	counts() map[string]int // kernel and request counts, for the stamp
	close()
}

// setupFunc builds a fresh instance of one workload from the seed. It is
// timed, and its median is setup_s.
type setupFunc func(o options, traced bool) (instance, error)

var workloads = map[string]setupFunc{
	"paper-suite":   setupPaperSuite,
	"race-paths":    setupRacePaths,
	"exact-certify": setupExactCertify,
	"serve-mix":     setupServeMix,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// passResult is what one pass measured and checked.
type passResult struct {
	traced bool
	// wall and cpu measure the timed region: the engine calls, or the
	// request sequence with the jobs it submitted. cpu is process CPU time.
	wall, cpu time.Duration
	// calls and callsCPU are the library workloads' engine-call times, in
	// the same order in every pass.
	calls, callsCPU []time.Duration
	// ref holds the CPU time of each reference chunk run during the pass
	// (see ref.go).
	ref []time.Duration
	// lat holds the serve-mix latency samples by class: "op" for /v1/map
	// requests, then "hit", "miss", "job" and "turnaround".
	lat map[string][]time.Duration
	// answers, mapped and perfSum give perf_mean and mapped_frac; an answer
	// that is not a certified mapping adds 0 to perfSum. proven counts the
	// exact engine's optimality certificates.
	answers, mapped, proven int
	perfSum                 float64
	attempted, failed       int
	failures                []string
	checks                  int // answers the correctness gate examined
	peakRSSMB               float64
	sig                     signature
	// layers are the per-layer values of a traced pass; rows its per-call
	// breakdown.
	layers map[string]float64
	rows   []row
	// covered is the time the layers' own spans account for inside spanned,
	// the benchmark's spans around the engine calls.
	covered, spanned time.Duration
}

func newPass(traced bool) *passResult {
	return &passResult{traced: traced, lat: map[string][]time.Duration{}, layers: map[string]float64{}}
}

// sampleRef runs n reference chunks and keeps their CPU times; a wrong
// reference answer is a failure.
func (p *passResult) sampleRef(n int) {
	for i := 0; i < n; i++ {
		d, err := refChunk()
		if err != nil {
			p.fail("%v", err)
		}
		p.ref = append(p.ref, d)
	}
}

// refUnits is the pass's CPU time in units of its mean reference chunk.
func (p *passResult) refUnits() float64 {
	total := sum(p.ref)
	if total <= 0 {
		return 0
	}
	return p.cpu.Seconds() / (total.Seconds() / float64(len(p.ref)))
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// fail records a failed operation.
func (p *passResult) fail(format string, args ...any) {
	p.failed++
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

// row is one engine call of a traced pass, printed in the per-layer table.
type row struct {
	Call    string  `json:"call"`
	Kernel  string  `json:"kernel"`
	MII     int     `json:"mii"`
	II      int     `json:"ii"`
	Ms      float64 `json:"ms"`
	Covered float64 `json:"covered_ms"`
}

// runResult is the whole run, reduced to the output metrics.
type runResult struct {
	metrics            map[string]metric
	attempted, failed  int
	failures           []string
	checks             int
	passes, tracedPass int
	counts             map[string]int
	rows               []row
	setupSeconds       float64 // median over all set-ups, in scaled CPU seconds
	passWalls, passCPU []float64
	passRef            []float64
}

// measure sets the workload up several times, then runs passes until the
// time is up, and reduces them to the metrics of the requested mode.
func measure(setup setupFunc, o options, stderr io.Writer) (*runResult, error) {
	ctx := context.Background()
	var setups []float64
	// A set-up's CPU time is scaled by the reference chunk run right before
	// it, to what it takes on a host that runs the chunk in refNominal: a
	// set-up is under a millisecond of work, and its raw CPU time moved with
	// the host by a third between sets of runs.
	newInstance := func(traced bool) (instance, error) {
		runtime.GC()
		ref, err := refChunk()
		if err != nil {
			return nil, err
		}
		c0 := cpuTime()
		inst, err := setup(o, traced)
		setups = append(setups, (cpuTime()-c0).Seconds()*refNominal.Seconds()/max(ref.Seconds(), 1e-9))
		return inst, err
	}
	var counts map[string]int
	for i := 0; i < setupReps; i++ {
		inst, err := newInstance(false)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		counts = inst.counts()
		inst.close()
	}

	minPasses := 1
	if o.trace {
		minPasses = 2 // one untraced and one traced, for trace.overhead_frac
	}
	// A pass starts only if one more, at the median length so far, ends
	// before the time is up, so a run lasts about --seconds.
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	var passes []*passResult
	var lengths []float64
	for i := 0; i < minPasses || time.Now().Add(time.Duration(median(lengths)*float64(time.Second))).Before(deadline); i++ {
		start := time.Now()
		traced := o.trace && i%2 == 1
		inst, err := newInstance(traced)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		runtime.GC()
		resetPeakRSS()
		p := inst.pass(ctx)
		p.peakRSSMB = peakRSSMB()
		inst.close()
		passes = append(passes, p)
		lengths = append(lengths, time.Since(start).Seconds())
	}
	return reduce(o, passes, setups, counts, stderr), nil
}

// reduce turns the passes into the run's metrics and runs the cross-pass
// and cross-run checks.
func reduce(o options, passes []*passResult, setups []float64, counts map[string]int, stderr io.Writer) *runResult {
	r := &runResult{counts: counts, passes: len(passes), setupSeconds: median(setups),
		passWalls: walls(passes), passCPU: cpus(passes), passRef: refUnits(passes)}
	var untraced, traced []*passResult
	for _, p := range passes {
		r.attempted += p.attempted
		r.failed += p.failed
		r.checks += p.checks
		r.failures = append(r.failures, p.failures...)
		if p.traced {
			traced = append(traced, p)
		} else {
			untraced = append(untraced, p)
		}
	}
	r.tracedPass = len(traced)

	// Determinism: every pass must give the quality signature of the first,
	// and so must every earlier run of this binary at this seed.
	first := passes[0].sig
	for i, p := range passes[1:] {
		if diff := first.diff(p.sig); diff != "" {
			r.failed++
			r.failures = append(r.failures, fmt.Sprintf("pass %d is not deterministic: %s", i+2, diff))
		}
	}
	if diff, err := checkAcrossRuns(o, first); err != nil {
		fmt.Fprintf(stderr, "perfbench: determinism record not kept: %v\n", err)
	} else if diff != "" {
		r.failed++
		r.failures = append(r.failures, "differs from an earlier run at this seed: "+diff)
	}
	if r.attempted == 0 {
		r.attempted = 1
	}

	if !o.trace {
		r.metrics = endToEnd(untraced, r.setupSeconds)
		return r
	}
	r.metrics = perLayer(traced, untraced)
	r.rows = traced[0].rows
	if gap := r.metrics["trace.unattributed_frac"].Value; gap > maxUnattributed {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf("layer self times leave %.1f%% of the engine-call spans unattributed (limit %.0f%%)",
			100*gap, 100*maxUnattributed))
	}
	return r
}

// maxUnattributed is the largest share of the benchmark's spans around the
// engine calls that the layers' self times may leave unexplained.
const maxUnattributed = 0.05

func walls(ps []*passResult) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.wall.Seconds()
	}
	return out
}

func refUnits(ps []*passResult) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.refUnits()
	}
	return out
}

func cpus(ps []*passResult) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.cpu.Seconds()
	}
	return out
}

// passTimes reduces passes to the time of one pass and the per-operation
// times: wall times, or CPU times when cpu is set.
//
// A library pass repeats the same engine calls in the same order, so each
// call's time is its median over the passes, and the pass time is the sum of
// those medians: a burst of load from outside the process then slows only
// the passes it hits, not the result. The serve-mix requests interact, so
// the pass time is the median pass and its request latencies are pooled
// over the passes (wall only: a request's CPU time is not observable).
func passTimes(ps []*passResult, cpu bool) (pass float64, ops []time.Duration) {
	calls := func(q *passResult) []time.Duration {
		if cpu {
			return q.callsCPU
		}
		return q.calls
	}
	if len(calls(ps[0])) == 0 {
		for _, q := range ps {
			ops = append(ops, q.lat["op"]...)
		}
		if cpu {
			return median(cpus(ps)), ops
		}
		return median(walls(ps)), ops
	}
	for j := range calls(ps[0]) {
		var xs []float64
		for _, q := range ps {
			xs = append(xs, calls(q)[j].Seconds())
		}
		d := median(xs)
		pass += d
		ops = append(ops, time.Duration(d*float64(time.Second)))
	}
	return pass, ops
}

// endToEnd computes the end-to-end metrics from untraced passes. The
// quality figures are deterministic, so the first pass gives them. The cost
// of a pass is its CPU time in units of the reference run beside it (see
// ref.go), median over passes; perLayer reports the CPU and wall seconds.
func endToEnd(ps []*passResult, setupSeconds float64) map[string]metric {
	p := ps[0]
	var rss []float64
	for _, q := range ps {
		rss = append(rss, q.peakRSSMB)
	}
	return map[string]metric{
		"setup_s":     {setupSeconds, "s"},
		"pass_ref":    {median(refUnits(ps)), "ref"},
		"perf_mean":   {p.perfSum / float64(max(p.answers, 1)), "ratio"},
		"mapped_frac": {float64(p.mapped) / float64(max(p.answers, 1)), "frac"},
		"peak_rss_mb": {median(rss), "MB"},
	}
}

// perLayer computes the per-layer metrics: the median over traced passes of
// each layer value, every metric of the per-layer list present (0 when the
// workload does not run that layer).
func perLayer(traced, untraced []*passResult) map[string]metric {
	out := map[string]metric{}
	for _, d := range layerMetrics() {
		var vals []float64
		for _, p := range traced {
			vals = append(vals, p.layers[d.name])
		}
		out[d.name] = metric{median(vals), d.unit}
	}
	var covered, spanned time.Duration
	for _, p := range traced {
		covered += p.covered
		spanned += p.spanned
	}
	if spanned > 0 {
		gap := 1 - covered.Seconds()/spanned.Seconds()
		if gap < 0 {
			gap = -gap
		}
		out["trace.unattributed_frac"] = metric{gap, "frac"}
	}
	if u := median(refUnits(untraced)); u > 0 {
		out["trace.overhead_frac"] = metric{median(refUnits(traced))/u - 1, "frac"}
	}
	// The raw CPU and wall-clock times, from the untraced passes: too noisy
	// on a shared host to bound, so they are reported here.
	passWall, ops := passTimes(untraced, false)
	passCPU, _ := passTimes(untraced, true)
	var refMs []float64
	for _, p := range untraced {
		refMs = append(refMs, 1000*p.cpu.Seconds()/max(p.refUnits(), 1e-9))
	}
	out["pass_wall_s"] = metric{passWall, "s"}
	out["pass_cpu_s"] = metric{passCPU, "s"}
	out["ref_ms"] = metric{median(refMs), "ms"}
	out["op_ms_p50"] = metric{quantileMs(ops, 0.5), "ms"}
	out["op_ms_p90"] = metric{quantileMs(ops, 0.9), "ms"}
	return out
}

// stampFor identifies the machine, toolchain, commit and input sizes, so
// results from different boxes are never compared silently.
func stampFor(o options, r *runResult) map[string]any {
	return map[string]any{
		"workload":     o.workload,
		"seed":         o.seed,
		"seconds":      o.seconds,
		"trace":        o.trace,
		"smoke":        o.smoke,
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"cpu_model":    cpuModel(),
		"go_version":   runtime.Version(),
		"commit":       commit(),
		"counts":       r.counts,
		"checks":       r.checks,
		"passes":       r.passes,
		"traced":       r.tracedPass,
		"pass_walls_s": r.passWalls,
		"pass_cpu_s":   r.passCPU,
		"pass_ref":     r.passRef,
		"unix_time_s":  time.Now().Unix(),
	}
}
