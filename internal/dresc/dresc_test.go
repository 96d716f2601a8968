package dresc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"regimap/internal/arch"
	"regimap/internal/dfg"
	"regimap/internal/maperr"
)

func fig2DFG() *dfg.DFG {
	b := dfg.NewBuilder("fig2")
	a := b.Input("a")
	bb := b.Op(dfg.Neg, "b", a)
	c := b.Op(dfg.Neg, "c", bb)
	b.Op(dfg.Add, "d", c, a)
	return b.Build()
}

func TestMapFigure2(t *testing.T) {
	d := fig2DFG()
	c := arch.NewMesh(1, 2, 2)
	p, stats, err := Map(context.Background(), d, c, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.MII != 2 {
		t.Fatalf("MII = %d, want 2", stats.MII)
	}
	if stats.II < stats.MII {
		t.Fatalf("II %d below MII %d", stats.II, stats.MII)
	}
	if err := p.Verify(c); err != nil {
		t.Fatal(err)
	}
	if stats.Moves == 0 {
		t.Error("annealer reported zero moves on a non-trivial kernel")
	}
}

func TestMapRecurrence(t *testing.T) {
	b := dfg.NewBuilder("rec3")
	x := b.Input("x")
	p := b.Op(dfg.Add, "p", x)
	q := b.Op(dfg.Neg, "q", p)
	r := b.Op(dfg.Neg, "r", q)
	b.EdgeDist(r, p, 1, 1)
	d := b.Build()
	c := arch.NewMesh(4, 4, 4)
	pl, stats, err := Map(context.Background(), d, c, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if stats.II < 3 {
		t.Fatalf("II = %d beats RecMII 3", stats.II)
	}
	if err := pl.Verify(c); err != nil {
		t.Fatal(err)
	}
}

func TestMapAccumulator(t *testing.T) {
	b := dfg.NewBuilder("acc")
	x := b.Input("x")
	acc := b.Op(dfg.Add, "acc", x)
	b.EdgeDist(acc, acc, 1, 1)
	d := b.Build()
	c := arch.NewMesh(2, 2, 2)
	pl, _, err := Map(context.Background(), d, c, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Verify(c); err != nil {
		t.Fatal(err)
	}
}

func TestMapMemoryKernel(t *testing.T) {
	b := dfg.NewBuilder("mem")
	for i := 0; i < 3; i++ {
		a := b.Input("a")
		v := b.Op(dfg.Load, "ld", a)
		b.Op(dfg.Store, "st", a, v)
	}
	d := b.Build()
	c := arch.NewMesh(2, 2, 2)
	pl, stats, err := Map(context.Background(), d, c, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// 6 memory ops on 2 row buses: bus-bound MII of 3.
	if stats.MII != 3 {
		t.Fatalf("MII = %d, want 3", stats.MII)
	}
	if err := pl.Verify(c); err != nil {
		t.Fatal(err)
	}
}

func TestMapInvalidDFG(t *testing.T) {
	bad := &dfg.DFG{Name: "bad", Nodes: []dfg.Node{{ID: 0, Name: "x", Kind: dfg.Add}}}
	if _, _, err := Map(context.Background(), bad, arch.NewMesh(2, 2, 2), Options{}); err == nil {
		t.Fatal("accepted invalid DFG")
	}
}

func TestMapImpossible(t *testing.T) {
	b := dfg.NewBuilder("mul")
	x := b.Input("x")
	b.Op(dfg.Mul, "m", x, x)
	d := b.Build()
	c := arch.NewMesh(1, 2, 2)
	c.RestrictPE(0, dfg.Add)
	c.RestrictPE(1, dfg.Add)
	if _, _, err := Map(context.Background(), d, c, Options{MaxII: 3, Seed: 1}); err == nil {
		t.Fatal("mapped kernel with unsupported op")
	}
}

func TestDeterministicForSeed(t *testing.T) {
	d := fig2DFG()
	c := arch.NewMesh(2, 2, 2)
	_, s1, err1 := Map(context.Background(), d, c, Options{Seed: 42})
	_, s2, err2 := Map(context.Background(), d, c, Options{Seed: 42})
	if (err1 == nil) != (err2 == nil) {
		t.Fatal("outcome not deterministic")
	}
	if err1 == nil && (s1.II != s2.II || s1.Moves != s2.Moves) {
		t.Fatalf("run not deterministic: II %d/%d moves %d/%d", s1.II, s2.II, s1.Moves, s2.Moves)
	}
}

func TestPerfMetric(t *testing.T) {
	s := &Stats{MII: 2, II: 4}
	if s.Perf() != 0.5 {
		t.Errorf("Perf = %v, want 0.5", s.Perf())
	}
	if (&Stats{MII: 2}).Perf() != 0 {
		t.Error("failed run must have Perf 0")
	}
}

// Random kernels: every successful DRESC placement must verify.
func TestRandomKernelsVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	kinds := []dfg.OpKind{dfg.Add, dfg.Sub, dfg.Mul, dfg.Xor}
	for trial := 0; trial < 12; trial++ {
		b := dfg.NewBuilder("rand")
		ids := []int{b.Input("i0")}
		n := 4 + rng.Intn(8)
		for len(ids) < n {
			k := kinds[rng.Intn(len(kinds))]
			ids = append(ids, b.Op(k, "op", ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]))
		}
		d := b.Build()
		c := arch.NewMesh(2, 2, 4)
		pl, _, err := Map(context.Background(), d, c, Options{Seed: int64(trial)})
		if err != nil {
			continue
		}
		if err := pl.Verify(c); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestHeap(t *testing.T) {
	h := &nodeHeap{}
	for _, d := range []int{5, 1, 4, 1, 3, 9, 2} {
		h.push(heapItem{node: d * 10, dist: d})
	}
	prev := -1
	for h.len() > 0 {
		it := h.pop()
		if it.dist < prev {
			t.Fatal("heap pops out of order")
		}
		prev = it.dist
	}
}

// TestVerifyRejectsTampering mutates a valid placement in each dimension and
// expects the verifier to object — the auditor must not be a rubber stamp.
func TestVerifyRejectsTampering(t *testing.T) {
	d := fig2DFG()
	c := arch.NewMesh(2, 2, 2)
	fresh := func() *Placement {
		p, _, err := Map(context.Background(), d, c, Options{Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	p := fresh()
	p.Time[3] = p.Time[0] - 1 // consumer before producer
	if err := p.Verify(c); err == nil {
		t.Error("accepted broken dependence timing")
	}

	p = fresh()
	p.Paths[0] = nil // unroute an edge
	if err := p.Verify(c); err == nil {
		t.Error("accepted an unrouted edge")
	}

	p = fresh()
	p.Paths[0] = append([]int{p.Paths[0][0]}, p.Paths[0]...) // duplicate the source hop
	if err := p.Verify(c); err == nil {
		t.Error("accepted a path with a non-arc hop or wrong span")
	}

	p = fresh()
	// Move an op to a PE its path no longer starts from.
	p.PE[0] = (p.PE[0] + 1) % c.NumPEs()
	if err := p.Verify(c); err == nil {
		t.Error("accepted a placement whose route starts elsewhere")
	}
}

// TestPlateauAbortStillMaps exercises the annealer's early-abort path: a
// kernel that cannot fit II=MII forces at least one aborted annealing round
// before success at a higher II.
func TestPlateauAbortStillMaps(t *testing.T) {
	// 6 ops on a 1x2 array with no registers: MII=3 is very tight.
	b := dfg.NewBuilder("tight")
	x := b.Input("x")
	y := b.Op(dfg.Neg, "y", x)
	z := b.Op(dfg.Add, "z", y, x)
	w := b.Op(dfg.Neg, "w", z)
	b.Op(dfg.Add, "v", w, z)
	d := b.Build()
	c := arch.NewMesh(1, 2, 0)
	p, stats, err := Map(context.Background(), d, c, Options{Seed: 4})
	if err != nil {
		t.Skipf("tight kernel unmappable with this seed: %v", err)
	}
	if err := p.Verify(c); err != nil {
		t.Fatal(err)
	}
	if stats.II < stats.MII {
		t.Fatalf("II %d below MII %d", stats.II, stats.MII)
	}
}

// TestRestartChainPanicIsReturned: restart chains that panic count as failed
// chains and come back from the race as typed errors naming each chain, on
// the caller's goroutine. Chain states with no kernel or fabric make every
// annealing run panic at once. dresc.Map wraps these errors into its
// no-mapping error when no II maps.
func TestRestartChainPanicIsReturned(t *testing.T) {
	states := []*state{{}, {}}
	p, panics := raceAtII(context.Background(), states, 3, Options{}, 3, &Stats{})
	if p != nil || len(panics) != 3 {
		t.Fatalf("got placement %v and %d panics, want none and 3", p, len(panics))
	}
	for i, err := range panics {
		var wp *maperr.WorkerPanicError
		if !errors.As(err, &wp) || wp.Worker != fmt.Sprintf("dresc chain %d", i) {
			t.Fatalf("panic %d: %v, want a *maperr.WorkerPanicError from dresc chain %d", i, err, i)
		}
	}
}
