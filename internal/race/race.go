// Package race is the one lowest-index-wins reduction behind every parallel
// path of the mapper (DESIGN.md section 8l). Callers order the indices
// [0,n) by preference; the winner is the index a sequential "run 0..n-1,
// stop at the first success" loop stops at, and every index below it runs
// to completion, so results never depend on the worker count.
package race

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"

	"regimap/internal/maperr"
)

// First runs fn over the indices [0,n) on up to workers goroutines and
// returns the lowest index for which fn succeeded, or -1. workers is clamped
// to [1,n]; one worker runs the indices in order on the caller's goroutine.
// w is the worker slot (0 <= w < workers) running index i. An index above
// the best success so far is skipped, and one already running sees its ctx
// cancelled. No index starts once ctx is cancelled (nil: never).
//
// A panicking fn is a failure: it comes back as a *maperr.WorkerPanicError
// named "<name> <index>", the panics in index order. First returns only
// after every goroutine it started has exited.
func First(ctx context.Context, name string, n, workers int, fn func(ctx context.Context, w, i int) bool) (int, []error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return run(ctx, name, n, workers, fn)
}

// Each runs fn for every index in [0,n) on up to workers goroutines: First
// without success. After every worker has exited it re-panics the
// lowest-index panic, as a *maperr.WorkerPanicError, on the caller's
// goroutine.
func Each(name string, n, workers int, fn func(w, i int)) {
	_, panics := run(nil, name, n, workers, func(_ context.Context, w, i int) bool {
		fn(w, i)
		return false
	})
	if len(panics) > 0 {
		panic(panics[0])
	}
}

// run is First; a nil ctx (Each) makes no per-worker contexts, since
// nothing is ever cancelled.
func run(ctx context.Context, name string, n, workers int, fn func(ctx context.Context, w, i int) bool) (int, []error) {
	r := &racer{ctx: ctx, name: name, fn: fn, n: int64(n)}
	if workers = max(1, min(workers, n)); workers == 1 {
		for i := 0; i < n && !r.stopped(); i++ {
			if r.call(ctx, 0, i) {
				return i, r.sorted()
			}
		}
		return -1, r.sorted()
	}
	r.best.Store(r.n)
	r.slots = make([]slot, workers)
	for w := range r.slots {
		if ctx != nil {
			r.slots[w].ctx, r.slots[w].cancel = context.WithCancel(ctx)
		}
	}
	r.wg.Add(workers)
	for w := range workers {
		go r.work(w)
	}
	r.wg.Wait()
	for w := range r.slots {
		if cancel := r.slots[w].cancel; cancel != nil {
			cancel()
		}
	}
	if winner := r.best.Load(); winner < r.n {
		return int(winner), r.sorted()
	}
	return -1, r.sorted()
}

type racer struct {
	ctx   context.Context
	name  string
	fn    func(ctx context.Context, w, i int) bool
	n     int64
	next  atomic.Int64 // the next index to claim
	best  atomic.Int64 // the lowest success so far (n: none)
	slots []slot
	wg    sync.WaitGroup

	mu     sync.Mutex
	panics []indexed
}

// slot is one worker: the index it claimed last and its context.
type slot struct {
	claim  atomic.Int64
	ctx    context.Context
	cancel context.CancelFunc
}

// indexed is a recovered panic and the index whose fn raised it.
type indexed struct {
	i   int
	err error
}

// work is one worker's loop. A success at i cancels every worker whose
// claim is above i; claims only grow, so that worker's next claim is skipped
// and its context is never needed again. A worker stores its claim before
// reading best and a success lowers best before reading the claims, so
// every index running above a success is either skipped or cancelled.
func (r *racer) work(w int) {
	defer r.wg.Done()
	for {
		i := r.next.Add(1) - 1
		r.slots[w].claim.Store(i)
		if i >= r.n || i > r.best.Load() || r.stopped() {
			return
		}
		if !r.call(r.slots[w].ctx, w, int(i)) {
			continue
		}
		for cur := r.best.Load(); i < cur && !r.best.CompareAndSwap(cur, i); cur = r.best.Load() {
		}
		for v := range r.slots {
			if s := &r.slots[v]; s.claim.Load() > i && s.cancel != nil {
				s.cancel()
			}
		}
	}
}

// call runs fn on index i, recovering a panic into a failure.
func (r *racer) call(ctx context.Context, w, i int) (ok bool) {
	defer func() {
		if v := recover(); v != nil {
			err := &maperr.WorkerPanicError{Worker: fmt.Sprintf("%s %d", r.name, i), Value: v, Stack: debug.Stack()}
			r.mu.Lock()
			r.panics = append(r.panics, indexed{i, err})
			r.mu.Unlock()
		}
	}()
	return r.fn(ctx, w, i)
}

func (r *racer) stopped() bool { return r.ctx != nil && r.ctx.Err() != nil }

// sorted returns the recovered panics in index order.
func (r *racer) sorted() []error {
	if len(r.panics) == 0 {
		return nil
	}
	sort.Slice(r.panics, func(a, b int) bool { return r.panics[a].i < r.panics[b].i })
	var out []error
	for _, p := range r.panics {
		out = append(out, p.err)
	}
	return out
}
