package clique

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"regimap/internal/maperr"
)

// workerCounts are the pool sizes the determinism suite sweeps; CI runs the
// sweep again under -race at GOMAXPROCS 1, 2, and 8.
var workerCounts = []int{2, 3, 8}

// targetsFor returns the target sweep for one graph: the unreachable full
// search, the exactly-achievable early-exit path, and one below it.
func targetsFor(g *Graph, achieved int) []int {
	targets := []int{g.N()}
	if achieved > 0 {
		targets = append(targets, achieved)
	}
	if achieved > 1 {
		targets = append(targets, achieved-1)
	}
	return targets
}

func TestFindParallelMatchesSequential(t *testing.T) {
	for _, tc := range referenceCases() {
		t.Run(tc.name, func(t *testing.T) {
			for trial := 0; trial < 30; trial++ {
				rng := rand.New(rand.NewSource(int64(9000 + trial)))
				g := tc.gen(rng)
				seq := Find(g, g.N(), tc.opts)
				for _, target := range targetsFor(g, len(seq)) {
					want := Find(g, target, tc.opts)
					for _, w := range workerCounts {
						opts := tc.opts
						opts.Workers = w
						got := Find(g, target, opts)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("trial %d target %d workers %d: got %v, sequential %v",
								trial, target, w, got, want)
						}
					}
				}
			}
		})
	}
}

func TestFindParallelSharedPoolMatchesSequential(t *testing.T) {
	// One pool across every trial, graph size, and worker count: arenas hop
	// between graphs exactly as regimapd's long-lived pool does.
	pool := NewPool()
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(11000 + trial)))
		g := randomFlatGraph(rng, 8+rng.Intn(24), 2+rng.Intn(4), 0.55, 0.5)
		want := Find(g, g.N(), Options{})
		for _, w := range []int{1, 2, 8} {
			got := Find(g, g.N(), Options{Workers: w, Arenas: pool})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d workers %d with shared pool: got %v, want %v", trial, w, got, want)
			}
		}
	}
}

func TestFindExactParallelMatchesSequential(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(13000 + trial)))
		var g *Graph
		if trial%2 == 0 {
			g = randomFlatGraph(rng, 8+rng.Intn(10), 2+rng.Intn(4), 0.55, 0.5)
		} else {
			g = randomClusterGraph(rng, 8+rng.Intn(10), 1+rng.Intn(3), 2+rng.Intn(3), 0.6)
		}
		seq := FindExact(g, g.N())
		for _, target := range targetsFor(g, len(seq)) {
			want := FindExact(g, target)
			for _, w := range workerCounts {
				got := FindExactParallel(g, target, w)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d target %d workers %d: got %v, sequential %v",
						trial, target, w, got, want)
				}
			}
		}
	}
}

// TestColorBoundNeverPrunesMaximum is the soundness property behind both the
// sequential and shared-bound pruning: the greedy-coloring upper bound on a
// candidate set is never below the true maximum feasible clique inside it,
// so a branch holding the true maximum always survives the prune test.
// FindExact (which prunes on the bound) must therefore return exactly what
// the unpruned reference search returns.
func TestColorBoundNeverPrunesMaximum(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(15000 + trial)))
		var g *Graph
		if trial%2 == 0 {
			g = randomFlatGraph(rng, 6+rng.Intn(12), 1+rng.Intn(4), 0.3+0.5*rng.Float64(), 0.5)
		} else {
			g = randomClusterGraph(rng, 6+rng.Intn(12), 1+rng.Intn(3), 2+rng.Intn(3), 0.6)
		}
		ref := refFindExact(g, g.N())

		ar := newArena(g)
		full := ar.get().cand // fresh state: every node is a candidate
		if cb := colorBound(g, full, ar, g.N()); cb < len(ref) {
			t.Fatalf("trial %d: coloring bound %d below true maximum clique %v", trial, cb, ref)
		}
		// The capped form used by the prune tests must saturate, never
		// undercut: with limit <= true maximum it must return its limit.
		if len(ref) > 0 {
			if cb := colorBound(g, full, ar, len(ref)); cb != len(ref) {
				t.Fatalf("trial %d: capped coloring bound %d != limit %d", trial, cb, len(ref))
			}
		}

		got := FindExact(g, g.N())
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("trial %d: FindExact with coloring bound %v != unpruned reference %v", trial, got, ref)
		}
	}
}

// TestParallelWorkerPanicReachesCaller: a panic inside a parallel search
// worker (here, the graph's weight function) must reach the caller's
// goroutine as a typed *maperr.WorkerPanicError carrying the panic site,
// where a recover — regimapd's per-request guard — can catch it, instead of
// killing the process from the worker goroutine.
func TestParallelWorkerPanicReachesCaller(t *testing.T) {
	g := NewGraph(8, 10)
	for u := 0; u < 8; u++ {
		for v := u + 1; v < 8; v++ {
			g.AddEdge(u, v)
		}
	}
	g.SetWeightFunc(weightPanics, func(int) bool { return true }, func(int) int { return 0 })
	searches := map[string]func(){
		"Find":              func() { Find(g, g.N(), Options{Workers: 2}) },
		"FindExactParallel": func() { FindExactParallel(g, g.N(), 2) },
	}
	for name, search := range searches {
		func() {
			defer func() {
				err, _ := recover().(error)
				var wp *maperr.WorkerPanicError
				if !errors.As(err, &wp) {
					t.Fatalf("%s: recovered %T %v, want a *maperr.WorkerPanicError", name, err, err)
				}
				if !bytes.Contains(wp.Stack, []byte("clique.weightPanics")) {
					t.Errorf("%s: stack does not point at the panic site:\n%s", name, wp.Stack)
				}
			}()
			search()
			t.Fatalf("%s returned without panicking", name)
		}()
	}
}

func weightPanics(u, v int) int { panic("deliberate weight panic") }
