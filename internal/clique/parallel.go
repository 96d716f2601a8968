// Parallel search engines. Both keep results byte-identical to their
// sequential counterparts via a deterministic reduction (DESIGN.md section
// 8g): work is split into the same partitions the sequential search visits
// in a fixed order, partial results are computed by pure per-partition
// functions, and the merge consumes them in partition order regardless of
// which worker finished first. Shared atomic bounds only ever skip work the
// merge provably discards.
package clique

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"

	"regimap/internal/graph"
	"regimap/internal/obs"
	"regimap/internal/race"
)

// Pool shares search arenas across requests and workers. regimapd installs
// one pool per process so the clique engine's states and bitsets are reused
// across mapping requests instead of reallocated; parallel searches draw one
// arena per worker from it. Arenas are bucketed by node capacity and fully
// wiped on reuse, so pooling is invisible to results.
type Pool struct {
	mu   sync.Mutex
	free map[int][]*arena
}

// NewPool returns an empty arena pool, safe for concurrent use.
func NewPool() *Pool { return &Pool{free: map[int][]*arena{}} }

func (p *Pool) acquire(g *Graph) *arena {
	if p == nil {
		return newArena(g)
	}
	p.mu.Lock()
	list := p.free[g.n]
	var ar *arena
	if k := len(list); k > 0 {
		ar, p.free[g.n] = list[k-1], list[:k-1]
	}
	p.mu.Unlock()
	if ar == nil {
		return newArena(g)
	}
	ar.rebind(g)
	return ar
}

func (p *Pool) release(ar *arena) {
	if p == nil || ar == nil {
		return
	}
	p.mu.Lock()
	p.free[ar.g.n] = append(p.free[ar.g.n], ar)
	p.mu.Unlock()
}

// rebind points a pooled arena at a new graph of the same capacity. Unlike
// reset — which only cleans member-touched entries because the graph is
// unchanged — rebind wipes every state completely: the previous request's
// graph (weights, clusters) is gone, so nothing incremental can be trusted.
func (a *arena) rebind(g *Graph) {
	if g.n != a.g.n {
		panic("clique: pool rebind across capacities")
	}
	a.g = g
	for _, s := range a.all {
		s.g = g
		s.members = s.members[:0]
		s.wMembers = s.wMembers[:0]
		for i := range s.sum {
			s.sum[i] = 0
		}
		s.inC.Reset()
		s.cand.Fill()
		if g.cluster == nil {
			s.byCluster = nil
		} else if len(s.byCluster) >= g.nClusters {
			s.byCluster = s.byCluster[:g.nClusters]
			for i := range s.byCluster {
				s.byCluster[i] = s.byCluster[i][:0]
			}
		} else {
			s.byCluster = make([][]int, g.nClusters)
		}
	}
	a.free = append(a.free[:0], a.all...)
}

// acquireArena hands the search an arena — pooled when the caller installed
// Options.Arenas, private otherwise — plus its release.
func (o Options) acquireArena(g *Graph) (*arena, func()) {
	if o.Arenas == nil {
		return newArena(g), func() {}
	}
	ar := o.Arenas.acquire(g)
	return ar, func() { o.Arenas.release(ar) }
}

// canceled reports whether the caller's context was cancelled. Workers poll
// it between partitions; a cancelled search returns a best-effort (possibly
// non-deterministic) result, which is fine because core.Map discards the
// whole attempt on cancellation.
func (o Options) canceled() bool {
	return o.Ctx != nil && o.Ctx.Err() != nil
}

// findParallel is Find across Options.Workers goroutines with byte-identical
// results.
//
// Seed phase: each seed's grow/swap is a pure function of (graph, seed,
// target), so race.First hands seed indices to the workers, each writes into
// a per-index slot, and the merge replays the sequential loop over the slots
// in seed order. A seed succeeds when its clique reaches the target: the
// sequential loop returns at the first such seed, so race.First skips later
// indices — indices at or before it are always fully computed.
//
// Intersection phase: the sequential pair enumeration feeds on its own
// output (each considered clique joins the pair pool), so it is replayed
// exactly, with the expensive grow/swap of each pair seed memoized. When the
// replay reaches a pair not yet memoized, it speculatively collects every
// further pair reachable over the current clique pool within the remaining
// budget, computes them in one parallel wave, and restarts the replay. Each
// wave memoizes at least the blocking pair, so the replay terminates, and
// only memoized pure results ever influence the outcome.
func findParallel(g *Graph, target int, opts Options) (best []int) {
	workers := opts.Workers
	maxSeeds := opts.MaxSeeds
	if maxSeeds <= 0 {
		maxSeeds = DefaultMaxSeeds
	}
	maxInter := opts.MaxIntersections
	if maxInter <= 0 {
		maxInter = DefaultMaxIntersections
	}
	if target > g.n {
		target = g.n
	}

	sp := opts.Trace.Start("clique.parallel")
	pairs, waves := 0, 0
	defer func() {
		sp.Field("nodes", int64(g.n))
		sp.Field("workers", int64(workers))
		sp.Field("pairs", int64(pairs))
		sp.Field("waves", int64(waves))
		sp.Field("best", int64(len(best)))
		sp.Field("target", int64(target))
		sp.End()
	}()

	order := opts.SeedOrder
	if len(order) != g.n {
		order = g.DegreeOrder()
	}
	if len(order) > maxSeeds {
		order = order[:maxSeeds]
	}

	// A worker slot takes an arena on its first index and hands it back when
	// the phase ends, so the next phase's slots reuse the warm ones.
	arenas := make([]*arena, workers)
	releases := make([]func(), workers)
	arenaFor := func(w int) *arena {
		if arenas[w] == nil {
			arenas[w], releases[w] = opts.acquireArena(g)
		}
		return arenas[w]
	}
	endPhase := func() {
		for w, release := range releases {
			if release != nil {
				release()
				arenas[w], releases[w] = nil, nil
			}
		}
	}
	defer endPhase()

	// Seed phase. Each worker slot's share of it is one partition span.
	type seedRes struct {
		ok      bool // seed was feasible (the sequential loop calls consider)
		members []int
	}
	results := make([]seedRes, len(order))
	seeds := make([]int, workers)
	var spans []obs.Span
	if opts.Trace.Enabled() {
		spans = make([]obs.Span, workers)
	}
	_, panics := race.First(opts.Ctx, "clique seed", len(order), workers, func(_ context.Context, w, i int) bool {
		if seeds[w] == 0 && spans != nil {
			spans[w] = opts.Trace.Start("clique.partition")
		}
		seeds[w]++
		ar := arenaFor(w)
		defer ar.recycleAll()
		s := ar.get()
		if !s.canAdd(order[i]) {
			return false
		}
		s.add(order[i])
		s.grow(target)
		if !opts.DisableSwap {
			s = swapImprove(s, target)
		}
		results[i] = seedRes{ok: true, members: append([]int(nil), s.members...)}
		return len(s.members) >= target
	})
	for w := range spans {
		if seeds[w] > 0 {
			spans[w].Field("worker", int64(w))
			spans[w].Field("seeds", int64(seeds[w]))
			spans[w].End()
		}
	}
	endPhase()
	if len(panics) > 0 {
		panic(panics[0])
	}

	var found [][]int
	for i := range results {
		if !results[i].ok {
			continue
		}
		c := results[i].members
		found = append(found, c)
		if len(c) > len(best) {
			best = c
		}
		if len(best) >= target {
			return best
		}
	}

	if opts.DisableIntersect {
		return best
	}

	// Intersection phase.
	sort.SliceStable(found, func(i, j int) bool { return len(found[i]) > len(found[j]) })
	found0 := append([][]int(nil), found...)
	best0 := best
	type pairJob struct {
		i, j   int
		seed   []int
		result []int
	}
	memo := map[[2]int][]int{}
	scratch := graph.NewBitset(g.n)

	// replay walks the sequential enumeration using memoized results. When it
	// hits a missing pair it stops consuming and instead collects the wave of
	// pairs the sequential loop could still reach over the current pool.
	replay := func() (missing []pairJob, result []int, complete bool) {
		found := append(found0[:0:0], found0...)
		best := best0
		pairs = 0
		consuming := true
		for i := 0; i < len(found) && pairs < maxInter; i++ {
			for j := i + 1; j < len(found) && pairs < maxInter; j++ {
				pairs++
				seed := intersectInto(scratch, found[i], found[j])
				if len(seed) == 0 || len(seed) == len(found[i]) || len(seed) == len(found[j]) {
					continue
				}
				grown, ok := memo[[2]int{i, j}]
				if !ok {
					missing = append(missing, pairJob{i: i, j: j, seed: append([]int(nil), seed...)})
					consuming = false
					continue
				}
				if !consuming {
					continue // downstream of a hole: collect only, never consume
				}
				found = append(found, grown)
				if len(grown) > len(best) {
					best = grown
				}
				if len(best) >= target {
					return nil, best, true
				}
			}
		}
		if consuming {
			return nil, best, true
		}
		return missing, nil, false
	}

	for {
		missing, result, complete := replay()
		if complete {
			return result
		}
		if opts.canceled() {
			return best
		}
		waves++
		race.Each("clique intersection", len(missing), workers, func(w, k int) {
			if opts.canceled() {
				return
			}
			ar := arenaFor(w)
			defer ar.recycleAll()
			s := rebuild(ar, missing[k].seed)
			s.grow(target)
			if !opts.DisableSwap {
				s = swapImprove(s, target)
			}
			missing[k].result = append([]int(nil), s.members...)
		})
		endPhase()
		for k := range missing {
			if missing[k].result == nil {
				return best // cancelled mid-wave
			}
			memo[[2]int{missing[k].i, missing[k].j}] = missing[k].result
		}
	}
}

// intersectInto returns a ∩ b preserving a's order, using scratch for
// membership tests. The result aliases fresh memory only when callers copy
// it (replay copies before handing seeds to workers).
func intersectInto(scratch *graph.Bitset, a, b []int) []int {
	scratch.Reset()
	for _, v := range b {
		scratch.Set(v)
	}
	var out []int
	for _, v := range a {
		if scratch.Has(v) {
			out = append(out, v)
		}
	}
	return out
}

// FindExactParallel is FindExact across workers goroutines with byte-
// identical results. The sequential search's root branches (first node
// chosen, earlier roots excluded from the subtree) are its partitions:
// race.First hands root indices to the workers, which explore each subtree
// depth-first and publish the best size found to a shared atomic bound.
//
// Cross-partition pruning must not change which clique is found first, so a
// subtree is cut on the shared bound only when it cannot *reach* it
// (members + upper bound < bound, strictly) — subtrees that could tie are
// still explored, because an earlier partition's tie beats a later
// partition's find in the sequential order. The bound is capped at target:
// the sequential search stops at the first target-sized clique, so the first
// partition to reach target wins the merge, and earlier partitions must keep
// looking for a still-earlier achiever. Within a partition the sequential
// count and coloring bounds apply unchanged.
func FindExactParallel(g *Graph, target, workers int) []int {
	if workers <= 1 {
		return FindExact(g, target)
	}
	if target > g.n {
		target = g.n
	}
	roots := rootBranches(g)
	results := make([][]int, len(roots))
	arenas := make([]*arena, workers)
	var shared atomic.Int64 // best clique size found by any partition
	_, panics := race.First(nil, "clique root", len(roots), workers, func(_ context.Context, w, i int) bool {
		if arenas[w] == nil {
			arenas[w] = newArena(g)
		}
		ar := arenas[w]
		defer ar.recycleAll()
		root := ar.get()
		if !root.canAdd(roots[i]) {
			return false
		}
		root.add(roots[i])
		for _, v := range roots[:i] {
			root.cand.Clear(v)
		}
		best := exactDFS(g, ar, root, target, &shared)
		results[i] = best
		if len(best) > 0 {
			casMax(&shared, int64(len(best)))
		}
		return len(best) >= target
	})
	if len(panics) > 0 {
		panic(panics[0])
	}
	// Deterministic reduction: replay the sequential best-update loop over the
	// per-root results in root order; strict improvement keeps the earliest
	// partition's clique on ties, exactly as the sequential DFS would.
	var best []int
	for _, r := range results {
		if len(r) > len(best) {
			best = r
		}
		if len(best) >= target {
			break
		}
	}
	return best
}

// rootBranches returns the sequential FindExact's first-level candidate
// order: every node, in increasing id (the root state's cand is full).
func rootBranches(g *Graph) []int {
	roots := make([]int, g.n)
	for i := range roots {
		roots[i] = i
	}
	return roots
}

// exactDFS explores one root partition. localBest mirrors the sequential
// bound; shared only cuts subtrees that cannot reach the globally known best
// size (see FindExactParallel).
func exactDFS(g *Graph, ar *arena, root *state, target int, shared *atomic.Int64) []int {
	var best []int
	var dfs func(s *state)
	dfs = func(s *state) {
		if len(s.members) > len(best) {
			best = append([]int(nil), s.members...)
		}
		if len(best) >= target {
			return
		}
		avail := s.cand.Count()
		if len(s.members)+avail <= len(best) {
			return
		}
		bound := int(shared.Load())
		if bound > target {
			bound = target
		}
		if len(s.members)+avail < bound {
			return
		}
		need := len(best) + 1 - len(s.members)
		if lower := bound - len(s.members); lower > need {
			// The subtree must reach `bound` to matter globally; color up to
			// the stricter requirement so the cap stays useful.
			need = lower
		}
		if cb := colorBound(g, s.cand, ar, need); len(s.members)+cb <= len(best) || len(s.members)+cb < bound {
			return
		}
		var cands []int
		s.cand.ForEach(func(u int) bool {
			if !s.inC.Has(u) {
				cands = append(cands, u)
			}
			return true
		})
		for i, u := range cands {
			if !s.canAdd(u) {
				continue
			}
			child := s.clone()
			child.add(u)
			for _, v := range cands[:i] {
				child.cand.Clear(v)
			}
			dfs(child)
			ar.put(child)
			if len(best) >= target {
				return
			}
		}
	}
	dfs(root)
	return best
}

// casMax raises v to x if x is larger (lock-free running maximum).
func casMax(v *atomic.Int64, x int64) {
	for {
		cur := v.Load()
		if x <= cur || v.CompareAndSwap(cur, x) {
			return
		}
	}
}
