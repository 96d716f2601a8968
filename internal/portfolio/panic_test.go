package portfolio

import (
	"context"
	"errors"
	"strings"
	"testing"

	"regimap/internal/maperr"
	"regimap/internal/mapping"
)

// TestRacePanicIsolation drives Map's window race (raceWindow over
// race.First) and proves a panicking racer is recovered into a typed error
// while its siblings keep racing: racer 1 panics, racer 2 still wins.
func TestRacePanicIsolation(t *testing.T) {
	stats := &Stats{}
	won := &mapping.Mapping{}
	res, winner, panics := raceWindow(context.Background(), 4, stats, func(ctx context.Context, i int) (*mapping.Mapping, int) {
		switch i {
		case 1:
			panic("deliberate test panic")
		case 2:
			return won, 7
		default:
			return nil, 1
		}
	})
	if res != won || winner != 2 {
		t.Fatalf("winner = %d (res %p), want racer 2", winner, res)
	}
	if stats.Panics != 1 {
		t.Fatalf("Stats.Panics = %d, want 1", stats.Panics)
	}
	if len(panics) != 1 {
		t.Fatalf("got %d panic errors, want 1", len(panics))
	}
	err := panics[0]
	if !errors.Is(err, ErrWorkerPanic) {
		t.Errorf("panic error is not ErrWorkerPanic: %v", err)
	}
	var wp *WorkerPanicError
	if !errors.As(err, &wp) {
		t.Fatalf("panic error is not a *WorkerPanicError: %T", err)
	}
	if wp.Worker != "portfolio racer 1" {
		t.Errorf("Worker = %q", wp.Worker)
	}
	if wp.Value != "deliberate test panic" {
		t.Errorf("Value = %v", wp.Value)
	}
	if len(wp.Stack) == 0 || !strings.Contains(string(wp.Stack), "panic_test") {
		t.Errorf("stack does not point at the panic site:\n%s", wp.Stack)
	}
	if !strings.Contains(err.Error(), "deliberate test panic") {
		t.Errorf("error message hides the panic value: %v", err)
	}
}

// TestRacePanicSingleRacer exercises the one-racer window, which race.First
// runs inline on the caller's goroutine and must guard just the same.
func TestRacePanicSingleRacer(t *testing.T) {
	stats := &Stats{}
	res, winner, panics := raceWindow(context.Background(), 1, stats, func(ctx context.Context, i int) (*mapping.Mapping, int) {
		panic(errors.New("boom"))
	})
	if res != nil || winner != -1 {
		t.Fatalf("got winner %d, want failure", winner)
	}
	if stats.Panics != 1 || len(panics) != 1 {
		t.Fatalf("Panics = %d, errors = %d, want 1 and 1", stats.Panics, len(panics))
	}
	if !errors.Is(panics[0], maperr.ErrWorkerPanic) {
		t.Fatalf("not a worker panic: %v", panics[0])
	}
}

// TestRaceAllPanic: every racer dying must still resolve the race (no
// deadlock, no crash) and report every panic.
func TestRaceAllPanic(t *testing.T) {
	stats := &Stats{}
	res, winner, panics := raceWindow(context.Background(), 3, stats, func(ctx context.Context, i int) (*mapping.Mapping, int) {
		panic(i)
	})
	if res != nil || winner != -1 {
		t.Fatalf("got winner %d, want failure", winner)
	}
	if stats.Panics != 3 || len(panics) != 3 {
		t.Fatalf("Panics = %d, errors = %d, want 3 and 3", stats.Panics, len(panics))
	}
}
