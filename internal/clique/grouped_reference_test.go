package clique

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"regimap/internal/graph"
)

// This file pins FindGrouped against a reference copy of the grouped search
// written the slow, obvious way: the swap repair rebuilds "the clique minus
// its blocker" by re-adding every other member through canAdd, forward
// checking intersects and counts every group mask over the full word width,
// and every call gets a fresh private arena. The search logic — orders,
// tie-breaks, round structure — is the same, so results must agree exactly.

// refGroupedStats counts how often the reference took its rarer paths, so
// the property test can assert its instances reach them.
type refGroupedStats struct {
	swaps, failedRounds int
}

func refFindGrouped(g *Graph, groups [][]int, opts Options, st *refGroupedStats) (best []int) {
	rounds := opts.GroupRounds
	if rounds <= 0 {
		rounds = 4
	}
	var order []int
	if len(opts.GroupOrder) == len(groups) {
		order = append([]int(nil), opts.GroupOrder...)
	} else {
		freedom := make([]int, len(groups))
		for gi, cands := range groups {
			f := -1
			for _, u := range cands {
				if d := g.Degree(u); d > f {
					f = d
				}
			}
			freedom[gi] = f
		}
		order = make([]int, len(groups))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(i, j int) bool {
			if freedom[order[i]] != freedom[order[j]] {
				return freedom[order[i]] < freedom[order[j]]
			}
			return order[i] < order[j]
		})
	}

	groupOf := make([]int, g.n)
	masks := make([]*graph.Bitset, len(groups))
	for gi, cands := range groups {
		masks[gi] = graph.NewBitset(g.n)
		for _, u := range cands {
			groupOf[u] = gi
			masks[gi].Set(u)
		}
	}
	ar := newArena(g)
	pending := make([]bool, len(groups))
	inFailed := make([]bool, len(groups))
	for round := 0; round < rounds; round++ {
		s := ar.get()
		var failed []int
		for _, gi := range order {
			pending[gi] = true
		}
		for oi, gi := range order {
			pending[gi] = false
			pick := refPickCandidate(g, s, groups, masks, order[oi+1:], pending, gi)
			if pick == -1 {
				if repaired := refSwapInGroup(g, s, groups, groupOf, gi); repaired != nil {
					st.swaps++
					ar.put(s)
					s = repaired
					continue
				}
				failed = append(failed, gi)
				continue
			}
			s.add(pick)
		}
		for iter := 0; iter < 2*len(failed)+2 && len(failed) > 0; iter++ {
			progress := false
			still := failed[:0]
			for _, gi := range failed {
				if repaired := refSwapInGroup(g, s, groups, groupOf, gi); repaired != nil {
					st.swaps++
					ar.put(s)
					s = repaired
					progress = true
				} else {
					still = append(still, gi)
				}
			}
			failed = still
			if !progress {
				break
			}
		}
		if len(s.members) > len(best) {
			best = append([]int(nil), s.members...)
		}
		if len(failed) == 0 {
			return best
		}
		st.failedRounds++
		next := make([]int, 0, len(order))
		next = append(next, failed...)
		for _, gi := range failed {
			inFailed[gi] = true
		}
		for _, gi := range order {
			if !inFailed[gi] {
				next = append(next, gi)
			}
		}
		for _, gi := range failed {
			inFailed[gi] = false
		}
		order = next
		ar.recycleAll()
	}
	return best
}

// refSwapInGroup rebuilds the clique without the blocker member by member,
// re-checking feasibility on every re-add.
func refSwapInGroup(g *Graph, s *state, groups [][]int, groupOf []int, gi int) *state {
	var base *state
	baseBlocker, baseOK := -1, false
	defer func() {
		if base != nil {
			s.ar.put(base)
		}
	}()
	for _, u := range groups[gi] {
		if s.inC.Has(u) {
			continue
		}
		if len(s.members)-g.adj[u].IntersectCount(s.inC) != 1 {
			continue
		}
		blocker := -1
		for _, m := range s.members {
			if !g.adj[u].Has(m) {
				blocker = m
				break
			}
		}
		if blocker != baseBlocker {
			if base == nil {
				base = s.ar.get()
			} else {
				base.reset()
			}
			baseBlocker, baseOK = blocker, true
			for _, m := range s.members {
				if m == blocker {
					continue
				}
				if !base.canAdd(m) {
					baseOK = false
					break
				}
				base.add(m)
			}
		}
		if !baseOK || !base.canAdd(u) {
			continue
		}
		trial := base.clone()
		trial.add(u)
		gx := groupOf[blocker]
		repick, repickScore := -1, -1
		for _, w := range groups[gx] {
			if !trial.canAdd(w) {
				continue
			}
			if score := g.adj[w].IntersectCount(trial.cand); score > repickScore {
				repick, repickScore = w, score
			}
		}
		if repick == -1 {
			s.ar.put(trial)
			continue
		}
		trial.add(repick)
		return trial
	}
	return nil
}

// refPickCandidate is the forward-checking pick with every intersection taken
// over the whole word array and fresh scratch per call.
func refPickCandidate(g *Graph, s *state, groups [][]int, masks []*graph.Bitset, rest []int, pending []bool, gi int) int {
	var live []*graph.Bitset
	var single []int
	looked := 0
	for _, gj := range rest {
		if !pending[gj] {
			continue
		}
		if looked++; looked > maxLookahead {
			break
		}
		lm := masks[gj].Clone()
		lm.And(s.cand)
		switch lm.Count() {
		case 0:
		case 1:
			single = append(single, lm.Members()[0])
		default:
			live = append(live, lm)
		}
	}
	var cands, cDead, cTight []int
	minDead, minTight := 1<<30, 1<<30
	for _, u := range groups[gi] {
		if !s.canAdd(u) {
			continue
		}
		dead, tight := 0, 0
		for _, v := range single {
			if g.adj[u].Has(v) {
				tight++
			} else {
				dead++
			}
		}
		for _, lm := range live {
			switch lm.IntersectCountUpTo(g.adj[u], 2) {
			case 0:
				dead++
			case 1:
				tight++
			}
		}
		cands = append(cands, u)
		cDead = append(cDead, dead)
		cTight = append(cTight, tight)
		if dead < minDead || (dead == minDead && tight < minTight) {
			minDead, minTight = dead, tight
		}
	}
	best, bestScore := -1, -1
	for i, u := range cands {
		if cDead[i] != minDead || cTight[i] != minTight {
			continue
		}
		if score := g.adj[u].IntersectCount(s.cand); score > bestScore {
			best, bestScore = u, score
		}
	}
	return best
}

// randomGroupedGraph builds a REGIMap-shaped grouped instance of 64..320
// nodes. Each group is an operation and each of its candidates a binding to
// a random PE; ids are handed out group by group, so every group occupies a
// contiguous id range, and the random group sizes make many ranges straddle
// a 64-bit word boundary. Different groups are compatible with probability
// density, less often on a shared PE (a slot collision). With clustered set,
// register weights come from SetWeightFunc with one cluster per PE (the
// mapper's shape); otherwise they are stored AddWeight arcs between
// same-PE bindings.
func randomGroupedGraph(rng *rand.Rand, clustered bool) (*Graph, [][]int) {
	want := 64 + rng.Intn(257)
	nPE := 4 + rng.Intn(13)
	var groups [][]int
	n := 0
	for n < want {
		size := 2 + rng.Intn(17)
		if n+size > want {
			size = want - n
		}
		grp := make([]int, size)
		for k := range grp {
			grp[k] = n + k
		}
		groups = append(groups, grp)
		n += size
	}
	groupOf := make([]int, n)
	pe := make([]int, n)
	for gi, grp := range groups {
		for _, u := range grp {
			groupOf[u] = gi
			pe[u] = rng.Intn(nPE)
		}
	}
	g := NewGraph(n, 1+rng.Intn(4))
	density := 0.55 + 0.4*rng.Float64()
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if groupOf[u] == groupOf[v] {
				continue
			}
			p := density
			if pe[u] == pe[v] {
				p /= 2
			}
			if rng.Float64() < p {
				g.AddEdge(u, v)
				if !clustered && pe[u] == pe[v] {
					g.AddWeight(u, v, rng.Intn(3))
					g.AddWeight(v, u, rng.Intn(3))
				}
			}
		}
	}
	for u := 0; u < n; u++ {
		if rng.Float64() < 0.2 {
			g.AddBase(u, rng.Intn(2))
		}
	}
	if clustered {
		demand := make([]int, n)
		for u := range demand {
			demand[u] = rng.Intn(3)
		}
		fn := func(u, v int) int {
			if pe[u] != pe[v] {
				return 0
			}
			return demand[v]
		}
		hasOut := func(u int) bool {
			for v := 0; v < n; v++ {
				if v != u && fn(u, v) != 0 {
					return true
				}
			}
			return false
		}
		g.SetWeightFunc(fn, hasOut, func(u int) int { return pe[u] })
	}
	return g, groups
}

// TestFindGroupedMatchesReference diffs FindGrouped against the reference
// elementwise on multi-word grouped graphs, in both weight modes, with the
// default most-constrained order and with an explicit GroupOrder, on private
// and on pooled arenas.
func TestFindGroupedMatchesReference(t *testing.T) {
	pool := NewPool()
	cases := []struct {
		name      string
		clustered bool
		ordered   bool
		pooled    bool
	}{
		{"flat/default-order", false, false, false},
		{"flat/group-order", false, true, false},
		{"cluster/default-order", true, false, false},
		{"cluster/group-order", true, true, false},
		{"cluster/group-order/pooled", true, true, true},
		{"flat/default-order/pooled", false, false, true},
	}
	var st refGroupedStats
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for trial := 0; trial < 30; trial++ {
				rng := rand.New(rand.NewSource(int64(12000 + 100*ci + trial)))
				g, groups := randomGroupedGraph(rng, tc.clustered)
				opts := Options{GroupRounds: 1 + rng.Intn(6)}
				if tc.ordered {
					opts.GroupOrder = rng.Perm(len(groups))
				}
				if tc.pooled {
					opts.Arenas = pool
				}
				got := FindGrouped(g, groups, opts)
				want := refFindGrouped(g, groups, opts, &st)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d (n=%d groups=%d): FindGrouped=%v reference=%v", trial, g.N(), len(groups), got, want)
				}
				if !g.IsFeasibleClique(got) {
					t.Fatalf("trial %d: FindGrouped returned infeasible clique %v", trial, got)
				}
			}
		})
	}
	t.Logf("reference took %d swaps, %d failed rounds", st.swaps, st.failedRounds)
	// The instances must reach the paths the optimized code rewrites.
	if st.swaps == 0 || st.failedRounds == 0 {
		t.Fatalf("instances too easy: %d swaps, %d failed rounds", st.swaps, st.failedRounds)
	}
}
