// Search-arena pooling across calls and requests (DESIGN.md section 8g).
package clique

import "sync"

// Pool shares search arenas across calls and requests. regimapd installs one
// pool per process so the clique engine's states and bitsets are reused
// across mapping requests instead of reallocated; the placement passes that
// core races draw their arenas from it concurrently. Arenas are bucketed by
// node capacity and fully wiped on reuse, so pooling is invisible to results.
type Pool struct {
	mu   sync.Mutex
	free map[int][]*arena
}

// NewPool returns an empty arena pool, safe for concurrent use.
func NewPool() *Pool { return &Pool{free: map[int][]*arena{}} }

func (p *Pool) acquire(g *Graph) *arena {
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
