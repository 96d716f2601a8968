package race

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"regimap/internal/maperr"
)

// TestFirstLowestIndexWins races random success sets in which successes
// finish in reverse index order (higher indices sooner), so the first
// success to arrive is rarely the winner.
func TestFirstLowestIndexWins(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(24)
		workers := 1 + rng.Intn(8)
		succeeds := make([]bool, n)
		want := -1
		for i := n - 1; i >= 0; i-- {
			if rng.Intn(3) == 0 {
				succeeds[i] = true
				want = i
			}
		}
		got, panics := First(context.Background(), "t", n, workers, func(_ context.Context, _, i int) bool {
			if succeeds[i] {
				time.Sleep(time.Duration(n-i) * 100 * time.Microsecond)
			} else {
				time.Sleep(time.Duration(i%3) * 100 * time.Microsecond)
			}
			return succeeds[i]
		})
		if got != want || panics != nil {
			t.Fatalf("trial %d (n=%d workers=%d): winner %d, panics %v; want %d", trial, n, workers, got, panics, want)
		}
	}
}

// TestFirstRunsBelowSkipsAbove: every index below the winner runs to
// completion, and no index above it starts once the win is known. The winner
// finishes at once while its neighbours sleep, so every worker's next claim
// comes after the win.
func TestFirstRunsBelowSkipsAbove(t *testing.T) {
	const n, winner, workers = 64, 5, 3
	var started, finished [n]atomic.Bool
	got, _ := First(context.Background(), "t", n, workers, func(_ context.Context, _, i int) bool {
		started[i].Store(true)
		defer finished[i].Store(true)
		if i == winner {
			return true
		}
		time.Sleep(20 * time.Millisecond)
		return false
	})
	if got != winner {
		t.Fatalf("winner %d, want %d", got, winner)
	}
	for i := 0; i <= winner; i++ {
		if !finished[i].Load() {
			t.Errorf("index %d below the winner did not run to completion", i)
		}
	}
	for i := winner + 1; i < n; i++ {
		if started[i].Load() {
			t.Errorf("index %d above the winner started after the win", i)
		}
	}
}

// TestFirstCancelsInFlightAbove: indices above a new success that are
// already running see their context cancelled; indices below it do not.
func TestFirstCancelsInFlightAbove(t *testing.T) {
	const n, winner, workers = 8, 2, 4
	var cancelledAbove, cancelledBelow atomic.Int32
	var ranAbove atomic.Int32
	got, _ := First(context.Background(), "t", n, workers, func(ctx context.Context, _, i int) bool {
		switch {
		case i < winner:
			time.Sleep(time.Millisecond)
			if ctx.Err() != nil {
				cancelledBelow.Add(1)
			}
			return false
		case i == winner:
			time.Sleep(20 * time.Millisecond)
			return true
		}
		ranAbove.Add(1)
		select {
		case <-ctx.Done():
			cancelledAbove.Add(1)
		case <-time.After(10 * time.Second):
		}
		return false
	})
	if got != winner {
		t.Fatalf("winner %d, want %d", got, winner)
	}
	if ranAbove.Load() == 0 || cancelledAbove.Load() != ranAbove.Load() {
		t.Fatalf("%d of %d in-flight indices above the winner saw cancellation", cancelledAbove.Load(), ranAbove.Load())
	}
	if cancelledBelow.Load() != 0 {
		t.Fatalf("%d indices below the winner were cancelled", cancelledBelow.Load())
	}
}

// TestFirstParentCancel: a cancelled parent context reaches every running
// index and stops new ones from starting, inline and in parallel.
func TestFirstParentCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var calls atomic.Int32
		if got, _ := First(ctx, "t", 10, workers, func(context.Context, int, int) bool { calls.Add(1); return true }); got != -1 || calls.Load() != 0 {
			t.Fatalf("workers=%d: pre-cancelled ctx ran %d indices (winner %d)", workers, calls.Load(), got)
		}

		ctx, cancel = context.WithCancel(context.Background())
		var ran, sawCancel atomic.Int32
		got, _ := First(ctx, "t", 100, workers, func(ctx context.Context, _, i int) bool {
			ran.Add(1)
			if i == 0 {
				cancel()
			}
			select {
			case <-ctx.Done():
				sawCancel.Add(1)
			case <-time.After(10 * time.Second):
			}
			return false
		})
		if got != -1 || ran.Load() > int32(workers) || sawCancel.Load() != ran.Load() {
			t.Fatalf("workers=%d: winner %d, %d indices ran, %d saw the cancel", workers, got, ran.Load(), sawCancel.Load())
		}
		cancel()
	}
}

// TestFirstEdgeCases: n == 0 runs nothing, workers > n clamps to n slots,
// and workers <= 1 runs inline, in order, up to the first success.
func TestFirstEdgeCases(t *testing.T) {
	if got, _ := First(context.Background(), "t", 0, 4, func(context.Context, int, int) bool {
		t.Fatal("fn called with n == 0")
		return true
	}); got != -1 {
		t.Fatalf("n == 0: winner %d", got)
	}
	Each("t", 0, 4, func(int, int) { t.Fatal("fn called with n == 0") })

	var maxSlot atomic.Int32
	var runs atomic.Int32
	Each("t", 3, 16, func(w, _ int) {
		runs.Add(1)
		for cur := maxSlot.Load(); int32(w) > cur && !maxSlot.CompareAndSwap(cur, int32(w)); cur = maxSlot.Load() {
		}
	})
	if runs.Load() != 3 || maxSlot.Load() > 2 {
		t.Fatalf("workers > n: %d runs, highest slot %d", runs.Load(), maxSlot.Load())
	}

	caller := goroutineID()
	for _, workers := range []int{-1, 0, 1} {
		var order []int
		got, _ := First(context.Background(), "t", 10, workers, func(_ context.Context, w, i int) bool {
			if w != 0 || goroutineID() != caller {
				t.Errorf("workers=%d: index %d ran on slot %d off the caller's goroutine", workers, i, w)
			}
			order = append(order, i)
			return i == 6
		})
		if got != 6 || len(order) != 7 {
			t.Fatalf("workers=%d: winner %d after %v", workers, got, order)
		}
		for k, i := range order {
			if k != i {
				t.Fatalf("workers=%d: ran out of order: %v", workers, order)
			}
		}
	}
}

// TestFirstPanics: panicking indices count as failures and come back as
// typed errors in index order, naming the caller and index, with the panic
// site on the stack — for one, several and all panicking indices, inline
// and in parallel, with no deadlock.
func TestFirstPanics(t *testing.T) {
	cases := []struct {
		name   string
		panics []int // every one below the succeeding index
		succ   int
	}{
		{"single", []int{1}, 3},
		{"several", []int{0, 2, 4}, 5},
		{"all", []int{0, 1, 2, 3, 4, 5}, -1},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 3} {
			got, errs := First(context.Background(), "test racer", 6, workers, func(_ context.Context, _, i int) bool {
				for _, p := range tc.panics {
					if p == i {
						panicHere(i)
					}
				}
				return i == tc.succ
			})
			if got != tc.succ || len(errs) != len(tc.panics) {
				t.Fatalf("%s/workers=%d: winner %d with %d panics, want %d with %d", tc.name, workers, got, len(errs), tc.succ, len(tc.panics))
			}
			for k, i := range tc.panics {
				checkPanic(t, errs[k], "test racer "+strconv.Itoa(i), i)
			}
		}
	}
}

// TestEachRepanicsOnCaller: Each re-raises the lowest-index panic on the
// caller's goroutine, after every other index has run.
func TestEachRepanicsOnCaller(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		func() {
			defer func() {
				err, _ := recover().(error)
				checkPanic(t, err, "each 2", 2)
			}()
			Each("each", 8, workers, func(_, i int) {
				if i == 2 || i == 5 {
					panicHere(i)
				}
				ran.Add(1)
			})
			t.Fatalf("workers=%d: Each returned without re-panicking", workers)
		}()
		if ran.Load() != 6 {
			t.Fatalf("workers=%d: %d non-panicking indices ran, want 6", workers, ran.Load())
		}
	}
}

// panicHere is the panic site the recovered stacks must point at.
func panicHere(i int) { panic(errors.New("deliberate panic " + strconv.Itoa(i))) }

func checkPanic(t *testing.T, err error, worker string, i int) {
	t.Helper()
	var wp *maperr.WorkerPanicError
	if !errors.As(err, &wp) || !errors.Is(err, maperr.ErrWorkerPanic) {
		t.Fatalf("got %T %v, want a *maperr.WorkerPanicError", err, err)
	}
	if wp.Worker != worker {
		t.Errorf("Worker = %q, want %q", wp.Worker, worker)
	}
	if !strings.Contains(err.Error(), "deliberate panic "+strconv.Itoa(i)) {
		t.Errorf("error hides the panic value: %v", err)
	}
	if !bytes.Contains(wp.Stack, []byte("race.panicHere")) {
		t.Errorf("stack does not point at the panic site:\n%s", wp.Stack)
	}
}

// goroutineID parses the running goroutine's id from its stack header.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}
