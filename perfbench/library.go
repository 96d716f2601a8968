package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"regimap/internal/arch"
	"regimap/internal/clique"
	"regimap/internal/core"
	"regimap/internal/dfg"
	"regimap/internal/dresc"
	"regimap/internal/exact"
	"regimap/internal/kernels"
	"regimap/internal/maperr"
	"regimap/internal/mapping"
	"regimap/internal/portfolio"
	"regimap/internal/sim"
)

// libArch is the fabric every library workload maps onto: the paper's 4x4
// mesh with four registers per PE.
const libArch = "paper-4x4"

// simIters is how many loop iterations every mapping is simulated for; the
// exact engine certifies its own mappings over the same count.
const simIters = 4

// drescSeed fixes DRESC's annealing. The annealer's work, and so its time,
// moves by a third between seeds; with the seed fixed, race-paths repeats the
// same work in every run, like the deterministic engines beside it.
const drescSeed = 1

// exactConflicts is the exact workload's per-solve conflict budget. Counted
// in conflicts, it makes every verdict machine-independent.
const exactConflicts = 20000

var (
	drescKernels = []string{"sobel", "iir_biquad", "h264_sad", "quant8"}
	exactKernels = []string{"adpcm_step", "gzip_crc", "hmmer_viterbi", "iir_biquad", "rgb2gray",
		"milc_su3", "alpha_blend", "median3", "gobmk_lib"}
)

func paperKernels() []string { return kernels.Names() }

// input is one kernel, built fresh for one instance.
type input struct {
	name string
	d    *dfg.DFG
}

// buildInputs builds the named kernels in an order drawn from seed; the
// order is the only thing the seed changes for the deterministic engines.
func buildInputs(names []string, seed int64) ([]input, error) {
	order := rand.New(rand.NewSource(seed)).Perm(len(names))
	out := make([]input, len(names))
	for i, j := range order {
		k, ok := kernels.ByName(names[j])
		if !ok {
			return nil, fmt.Errorf("unknown kernel %q", names[j])
		}
		out[i] = input{name: k.Name, d: k.Build()}
	}
	return out, nil
}

// libInstance is the shared shape of the three library workloads: a fabric,
// kernel lists, and a pass function over them.
type libInstance struct {
	traced bool
	c      *arch.CGRA
	groups map[string][]input
	run    func(ctx context.Context, in *libInstance, p *passResult)
}

func (in *libInstance) pass(ctx context.Context) *passResult {
	p := newPass(in.traced)
	p.sig.II = map[string]int{}
	in.run(ctx, in, p)
	p.sig.PerfMean = p.perfSum / float64(max(p.answers, 1))
	p.sig.MappedFrac = float64(p.mapped) / float64(max(p.answers, 1))
	p.sig.Proven = p.proven
	return p
}

func (in *libInstance) counts() map[string]int {
	out := map[string]int{}
	for g, ks := range in.groups {
		out[g+"_kernels"] = len(ks)
	}
	return out
}

func (in *libInstance) close() {}

// smokeKernels replace each group's kernels in smoke mode: one kernel per
// group, each large enough that the engine's own spans still cover nearly
// all of its call, as the traced-run check demands.
var smokeKernels = map[string][]string{
	"paper": {"fir8"},
	"hard":  {"lbm_stream"},
	"dresc": {"iir_biquad"},
	"exact": {"gzip_crc"},
}

// setupLibrary builds the fabric and the kernel groups of one library
// workload.
func setupLibrary(o options, traced bool, groups map[string][]string, run func(context.Context, *libInstance, *passResult)) (instance, error) {
	c, err := arch.Resolve(libArch)
	if err != nil {
		return nil, err
	}
	in := &libInstance{traced: traced, c: c, groups: map[string][]input{}, run: run}
	for g, names := range groups {
		if o.smoke {
			names = smokeKernels[g]
		}
		ks, err := buildInputs(names, o.seed)
		if err != nil {
			return nil, err
		}
		in.groups[g] = ks
	}
	return in, nil
}

// certify books one library answer. A no-mapping error is a correct
// (unmapped) answer; any other error, or a mapping that fails simulation or
// disagrees with the reported II, is a failure. It returns the certified II
// (0 when unmapped or failed).
func certify(p *passResult, call string, k input, m *mapping.Mapping, mii, ii int, err error) int {
	p.answers++
	key := call + "/" + k.name
	p.sig.II[key] = 0
	if err != nil {
		if !errors.Is(err, maperr.ErrNoMapping) || errors.Is(err, maperr.ErrAborted) {
			p.fail("%s: %v", key, err)
		}
		return 0
	}
	p.checks++
	if m == nil {
		p.fail("%s: no mapping and no error", key)
		return 0
	}
	t0 := time.Now()
	serr := sim.Check(m, simIters)
	p.layers["sim.check_ms"] += ms(time.Since(t0))
	switch {
	case serr != nil:
		p.fail("%s: simulation: %v", key, serr)
		return 0
	case m.II != ii || ii < mii || mii < 1:
		p.fail("%s: mapping II %d, reported II %d, MII %d", key, m.II, ii, mii)
		return 0
	}
	book(p, key, mii, ii)
	return ii
}

// book counts one certified answer at ii against the lower bound mii.
func book(p *passResult, key string, mii, ii int) {
	p.sig.II[key] = ii
	p.mapped++
	p.perfSum += float64(mii) / float64(ii)
}

// callStart is when an engine call started, on the wall clock and in
// process CPU time, and how many reference chunks the pass had run.
type callStart struct {
	wall time.Time
	cpu  time.Duration
	refs int
}

// startCall collects the garbage earlier calls left, so that no engine call
// pays for another's, runs one reference chunk to sample the host's speed
// just before the call, and returns the call's start.
func (p *passResult) startCall() callStart {
	runtime.GC()
	p.sampleRef(1)
	return callStart{time.Now(), cpuTime(), len(p.ref)}
}

// endCall books one engine call that started at t0 and returns its wall
// time. Its times leave out the reference chunks run inside the call
// (their wall time taken as their CPU time).
func (p *passResult) endCall(t0 callStart) time.Duration {
	inner := sum(p.ref[t0.refs:])
	dt := time.Since(t0.wall) - inner
	dc := cpuTime() - t0.cpu - inner
	p.attempted++
	p.wall += dt
	p.cpu += dc
	p.calls = append(p.calls, dt)
	p.callsCPU = append(p.callsCPU, dc)
	return dt
}

// --- paper-suite -------------------------------------------------------

func setupPaperSuite(o options, traced bool) (instance, error) {
	return setupLibrary(o, traced, map[string][]string{"paper": paperKernels()}, runPaperSuite)
}

// runPaperSuite maps every suite kernel with REGIMap's default options, one
// after another: the paper's Figure 6 path.
func runPaperSuite(ctx context.Context, in *libInstance, p *passResult) {
	for _, k := range in.groups["paper"] {
		cctx, sink := traceInto(ctx, in.traced)
		t0 := p.startCall()
		m, st, err := core.Map(cctx, k.d, in.c, core.Options{})
		dt := p.endCall(t0)
		ii := certify(p, "regimap", k, m, st.MII, st.II, err)
		addCoreStats(p, st)
		p.layers["kernel."+k.name+".ii"] = float64(ii)
		if slices.Contains(hardFive, k.name) {
			p.layers["hard5.ms"] += ms(dt)
			p.layers["hard5.ii_sum"] += float64(ii)
			p.layers["kernel."+k.name+".ms"] = ms(dt)
		}
		if sink != nil {
			covered := addCoreLayers(p, sink.Events())
			p.layers["core.map_ms"] += ms(dt)
			p.covered += covered
			p.spanned += dt
			p.rows = append(p.rows, row{Call: "core.Map", Kernel: k.name, MII: st.MII, II: ii, Ms: ms(dt), Covered: ms(covered)})
		}
	}
	p.layers["core.place_yield"] = float64(p.mapped) / max(p.layers["core.attempts"], 1)
}

// addCoreStats books REGIMap's own effort counters, which need no tracing.
func addCoreStats(p *passResult, st *core.Stats) {
	if st == nil {
		return
	}
	p.sig.CoreAttempts += st.Attempts
	p.layers["core.attempts"] += float64(st.Attempts)
	p.layers["core.reschedules"] += float64(st.Reschedules)
	p.layers["core.thinnings"] += float64(st.Thinnings)
	p.layers["core.route_inserts"] += float64(st.RouteInserts)
}

// --- race-paths --------------------------------------------------------

func setupRacePaths(o options, traced bool) (instance, error) {
	return setupLibrary(o, traced, map[string][]string{"hard": hardFive, "dresc": drescKernels}, runRacePaths)
}

// runRacePaths runs the three lowest-index-wins parallel paths at one
// worker per CPU: the parallel clique search inside core.Map, the
// portfolio's speculative II window, and DRESC's restart race.
func runRacePaths(ctx context.Context, in *libInstance, p *passResult) {
	workers := runtime.NumCPU()
	coreWire := map[string][]byte{}
	for _, k := range in.groups["hard"] {
		cctx, sink := traceInto(ctx, in.traced)
		t0 := p.startCall()
		m, st, err := core.Map(cctx, k.d, in.c, core.Options{Clique: clique.Options{Workers: workers}})
		dt := p.endCall(t0)
		ii := certify(p, "regimap-parallel", k, m, st.MII, st.II, err)
		addCoreStats(p, st)
		if ii > 0 {
			coreWire[k.name] = wireOf(p, k.name, m)
		}
		p.layers["race.clique_ms"] += ms(dt)
		if sink != nil {
			evs := sink.Events()
			covered := addCoreLayers(p, evs)
			p.layers["core.map_ms"] += ms(dt)
			p.layers["clique.partition_ms"] += ms(spanDur(evs, "clique.partition"))
			p.covered += covered
			p.spanned += dt
			p.rows = append(p.rows, row{Call: "core.Map/parallel", Kernel: k.name, MII: st.MII, II: ii, Ms: ms(dt), Covered: ms(covered)})
		}
	}
	if h := p.layers["core.attempts"]; h > 0 {
		p.layers["core.place_yield"] = float64(p.mapped) / h
	}

	for _, k := range in.groups["hard"] {
		cctx, sink := traceInto(ctx, in.traced)
		t0 := p.startCall()
		m, st, err := portfolio.Map(cctx, k.d, in.c, portfolio.Options{Attempts: workers})
		dt := p.endCall(t0)
		ii := certify(p, "portfolio", k, m, st.MII, st.II, err)
		// Without scouts the portfolio must return exactly the mapping a
		// sequential escalation reaches, at any window width.
		if ii > 0 && !bytes.Equal(wireOf(p, k.name, m), coreWire[k.name]) {
			p.fail("portfolio/%s: mapping differs from core.Map's at II %d", k.name, ii)
		}
		p.layers["race.portfolio_ms"] += ms(dt)
		if sink != nil {
			evs := sink.Events()
			covered := spanDur(evs, "portfolio.window")
			p.layers["portfolio.windows"] += float64(spanCount(evs, "portfolio.window"))
			p.covered += covered
			p.spanned += dt
			p.rows = append(p.rows, row{Call: "portfolio.Map", Kernel: k.name, MII: st.MII, II: ii, Ms: ms(dt), Covered: ms(covered)})
		}
	}

	for _, k := range in.groups["dresc"] {
		cctx, sink := traceInto(ctx, in.traced)
		t0 := p.startCall()
		pl, st, err := dresc.Map(cctx, k.d, in.c, dresc.Options{Seed: drescSeed, Restarts: workers, Workers: workers})
		dt := p.endCall(t0)
		ii := certifyPlacement(p, in.c, k, pl, st, err)
		p.sig.DRESCIISum += ii
		p.layers["dresc.ii_sum"] += float64(ii)
		p.layers["race.dresc_ms"] += ms(dt)
		if sink != nil {
			evs := sink.Events()
			covered := spanDur(evs, "dresc.anneal")
			p.layers["dresc.anneal_ms"] += ms(covered)
			p.layers["dresc.anneals"] += float64(spanCount(evs, "dresc.anneal"))
			p.covered += covered
			p.spanned += dt
			mii := 0
			if st != nil {
				mii = st.MII
			}
			p.rows = append(p.rows, row{Call: "dresc.Map", Kernel: k.name, MII: mii, II: ii, Ms: ms(dt), Covered: ms(covered)})
		}
	}
}

// wireOf encodes a mapping in the wire form, booking a failure if it cannot.
func wireOf(p *passResult, kernel string, m *mapping.Mapping) []byte {
	wire, err := json.Marshal(m)
	if err != nil {
		p.fail("%s: encode mapping: %v", kernel, err)
	}
	return wire
}

// certifyPlacement books one DRESC answer. DRESC yields a routed placement
// rather than a simulable mapping, so its certificate is the placement
// verifier: every operation bound, every route legal, no resource overused.
func certifyPlacement(p *passResult, c *arch.CGRA, k input, pl *dresc.Placement, st *dresc.Stats, err error) int {
	p.answers++
	key := "dresc/" + k.name
	p.sig.II[key] = 0
	if err != nil {
		if !errors.Is(err, maperr.ErrNoMapping) || errors.Is(err, maperr.ErrAborted) {
			p.fail("%s: %v", key, err)
		}
		return 0
	}
	switch {
	case pl == nil || st == nil:
		p.fail("%s: no placement and no error", key)
		return 0
	case pl.II != st.II || st.II < st.MII || st.MII < 1:
		p.fail("%s: placement II %d, reported II %d, MII %d", key, pl.II, st.II, st.MII)
		return 0
	}
	p.checks++
	if verr := pl.Verify(c); verr != nil {
		p.fail("%s: placement: %v", key, verr)
		return 0
	}
	book(p, key, st.MII, st.II)
	return st.II
}

// --- exact-certify -----------------------------------------------------

func setupExactCertify(o options, traced bool) (instance, error) {
	return setupLibrary(o, traced, map[string][]string{"exact": exactKernels}, runExactCertify)
}

// runExactCertify drives the exact engine one II at a time on each kernel,
// under a fixed conflict budget, and checks every certificate it issues.
func runExactCertify(ctx context.Context, in *libInstance, p *passResult) {
	var stepSeconds float64
	for _, k := range in.groups["exact"] {
		t0 := p.startCall()
		r, err := exact.NewRun(k.d, in.c, exact.Options{MaxConflicts: exactConflicts})
		var steps time.Duration
		for err == nil && !r.Done() {
			// A step can take seconds; a reference chunk before each one
			// samples the host through the call.
			if steps > 0 {
				p.sampleRef(1)
			}
			s0 := time.Now()
			var v exact.Verdict
			v, err = r.Step(ctx)
			sd := time.Since(s0)
			steps += sd
			if v.Status == "sat" || v.Status == "unsat" || v.Status == "unknown" {
				p.layers["exact.step_ms."+v.Status] += ms(sd)
				p.layers["exact.steps."+v.Status]++
			}
			p.layers["exact.vars"] += float64(v.Vars)
			p.layers["exact.clauses"] += float64(v.Clauses)
		}
		dt := p.endCall(t0)
		stepSeconds += steps.Seconds()

		cert := r.Certificate()
		p.sig.SatConflicts += cert.Conflicts
		p.layers["sat.conflicts"] += float64(cert.Conflicts)
		p.layers["sat.decisions"] += float64(cert.Decisions)
		p.layers["sat.restarts"] += float64(cert.Restarts)
		if err == nil {
			err = r.Err()
		}
		ii := certify(p, "exact", k, r.Mapping(), cert.MII, cert.BestII, err)
		if ii > 0 && checkCertificate(p, k.name, cert) {
			p.proven++
		}
		if in.traced {
			p.covered += steps
			p.spanned += dt
			p.rows = append(p.rows, row{Call: "exact.Run", Kernel: k.name, MII: cert.MII, II: ii, Ms: ms(dt), Covered: ms(steps)})
		}
	}
	if n := p.layers["exact.steps.sat"] + p.layers["exact.steps.unsat"] + p.layers["exact.steps.unknown"]; n > 0 {
		p.layers["exact.decisive_frac"] = (p.layers["exact.steps.sat"] + p.layers["exact.steps.unsat"]) / n
	}
	if stepSeconds > 0 {
		p.layers["sat.conflicts_per_s"] = p.layers["sat.conflicts"] / stepSeconds
	}
	p.layers["proven"] = float64(p.proven)
}

// checkCertificate checks an exact certificate against its own verdict
// log: BestII >= ProvenLowerBound >= MII, the lower bound raised exactly by
// the unbroken run of UNSAT verdicts from MII, and OptimalII claimed only
// when that run reaches BestII. It reports whether BestII is proven
// optimal, booking a failure for any inconsistency.
func checkCertificate(p *passResult, kernel string, c exact.Certificate) bool {
	p.checks++
	gapless, bound := true, c.MII
	for i, v := range c.PerII {
		if v.II != c.MII+i {
			p.fail("exact/%s: verdict %d is for II %d, want %d", kernel, i, v.II, c.MII+i)
			return false
		}
		last := i == len(c.PerII)-1
		switch {
		case last && v.Status == "sat":
		case v.Status == "unsat" && gapless:
			bound = v.II + 1
		default:
			gapless = false
		}
	}
	switch {
	case len(c.PerII) == 0 || c.PerII[len(c.PerII)-1].Status != "sat" || c.PerII[len(c.PerII)-1].II != c.BestII:
		p.fail("exact/%s: BestII %d is not the final SAT verdict", kernel, c.BestII)
	case !(c.BestII >= c.ProvenLowerBound && c.ProvenLowerBound >= c.MII):
		p.fail("exact/%s: want BestII %d >= ProvenLowerBound %d >= MII %d", kernel, c.BestII, c.ProvenLowerBound, c.MII)
	case c.ProvenLowerBound != bound:
		p.fail("exact/%s: ProvenLowerBound %d, but the UNSAT verdicts prove %d", kernel, c.ProvenLowerBound, bound)
	case c.OptimalII != 0 && (!gapless || c.OptimalII != c.BestII):
		p.fail("exact/%s: OptimalII %d claimed without a gapless escalation to BestII %d", kernel, c.OptimalII, c.BestII)
	case c.OptimalII == 0 && gapless:
		p.fail("exact/%s: gapless escalation to BestII %d but no OptimalII", kernel, c.BestII)
	default:
		return c.OptimalII != 0
	}
	return false
}
