package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130)
	if b.Cap() != 130 {
		t.Fatalf("Cap = %d, want 130", b.Cap())
	}
	for _, i := range []int{0, 63, 64, 127, 129} {
		b.Set(i)
	}
	if got := b.Count(); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
	if !b.Has(64) || b.Has(65) {
		t.Error("Has gave wrong answers around a word boundary")
	}
	b.Clear(64)
	if b.Has(64) {
		t.Error("Clear(64) had no effect")
	}
	got := b.Members()
	want := []int{0, 63, 127, 129}
	if len(got) != len(want) {
		t.Fatalf("Members = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Members = %v, want %v", got, want)
		}
	}
}

func TestBitsetPanics(t *testing.T) {
	b := NewBitset(10)
	for _, bad := range []int{-1, 10, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Set(%d) did not panic", bad)
				}
			}()
			b.Set(bad)
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("capacity mismatch did not panic")
		}
	}()
	b.And(NewBitset(11))
}

func TestBitsetSetOps(t *testing.T) {
	a := NewBitset(100)
	b := NewBitset(100)
	for i := 0; i < 100; i += 2 {
		a.Set(i)
	}
	for i := 0; i < 100; i += 3 {
		b.Set(i)
	}
	inter := a.Clone()
	inter.And(b)
	if got := inter.Count(); got != 17 { // multiples of 6 below 100
		t.Errorf("intersection count = %d, want 17", got)
	}
	if got := a.IntersectCount(b); got != 17 {
		t.Errorf("IntersectCount = %d, want 17", got)
	}
	union := a.Clone()
	union.Or(b)
	if got := union.Count(); got != 50+34-17 {
		t.Errorf("union count = %d, want 67", got)
	}
	diff := a.Clone()
	diff.AndNot(b)
	if got := diff.Count(); got != 50-17 {
		t.Errorf("difference count = %d, want 33", got)
	}
	if !union.ContainsAll(a) || inter.ContainsAll(a) {
		t.Error("ContainsAll gave wrong answers")
	}
}

func TestBitsetForEachEarlyStop(t *testing.T) {
	b := NewBitset(200)
	for i := 0; i < 200; i++ {
		b.Set(i)
	}
	n := 0
	b.ForEach(func(i int) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Errorf("ForEach visited %d members after early stop, want 5", n)
	}
}

func TestBitsetResetAndCopy(t *testing.T) {
	b := NewBitset(70)
	b.Set(1)
	b.Set(69)
	c := NewBitset(70)
	c.CopyFrom(b)
	b.Reset()
	if !b.Empty() {
		t.Error("Reset left members behind")
	}
	if c.Count() != 2 {
		t.Error("CopyFrom did not preserve the source")
	}
}

// Property: bitset set operations agree with a map-based model.
func TestBitsetAgainstModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		bs := NewBitset(n)
		model := map[int]bool{}
		for i := 0; i < 200; i++ {
			x := rng.Intn(n)
			switch rng.Intn(3) {
			case 0:
				bs.Set(x)
				model[x] = true
			case 1:
				bs.Clear(x)
				delete(model, x)
			case 2:
				if bs.Has(x) != model[x] {
					return false
				}
			}
		}
		return bs.Count() == len(model)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitsetGrow(t *testing.T) {
	b := NewBitset(10)
	b.Set(3)
	b.Set(9)
	b.Grow(5) // shrink within existing words: must clear, keep capacity
	if b.Cap() != 5 {
		t.Fatalf("Cap after Grow(5) = %d", b.Cap())
	}
	if !b.Empty() {
		t.Fatal("Grow did not clear the set")
	}
	b.Set(4)
	b.Grow(200) // grow past the backing array
	if b.Cap() != 200 || !b.Empty() {
		t.Fatalf("Grow(200): cap=%d empty=%v", b.Cap(), b.Empty())
	}
	b.Set(199)
	if !b.Has(199) || b.Count() != 1 {
		t.Fatal("bitset unusable after Grow")
	}
	// Steady state: growing within capacity must not allocate.
	b.Grow(64)
	if n := testing.AllocsPerRun(20, func() { b.Grow(128); b.Grow(64) }); n != 0 {
		t.Fatalf("Grow within capacity allocates %.1f times per run", n)
	}
}

// TestBitsetRangedOps checks the word-range operations the grouped clique
// search's forward checking runs on: x holds members only inside its
// WordBounds, and AndIntoIn/FirstIn/IntersectCountUpToIn over that range
// must agree with the full-width intersection while leaving the words
// outside the range untouched.
func TestBitsetRangedOps(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(400)
		x, y := NewBitset(n), NewBitset(n)
		from := rng.Intn(n)
		to := from + rng.Intn(n-from+1)
		for i := from; i < to; i++ {
			if rng.Intn(3) > 0 {
				x.Set(i)
			}
		}
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				y.Set(i)
			}
		}
		want := x.Clone()
		want.And(y)
		wantLo, wantHi := want.WordBounds()

		b := NewBitset(n)
		b.Fill() // stale contents the ranged write must leave outside its range
		glo, ghi := x.WordBounds()
		lo, hi := b.AndIntoIn(x, y, glo, ghi)
		if lo != wantLo || hi != wantHi {
			t.Fatalf("trial %d: AndIntoIn bounds [%d,%d), want [%d,%d)", trial, lo, hi, wantLo, wantHi)
		}
		full := NewBitset(n)
		full.Fill()
		for i := range b.words {
			w := full.words[i]
			if i >= glo && i < ghi {
				w = want.words[i]
			}
			if b.words[i] != w {
				t.Fatalf("trial %d: word %d = %x, want %x", trial, i, b.words[i], w)
			}
		}
		first := -1
		if m := want.Members(); len(m) > 0 {
			first = m[0]
		}
		if got := b.FirstIn(lo, hi); got != first {
			t.Fatalf("trial %d: FirstIn = %d, want %d", trial, got, first)
		}
		for limit := 1; limit <= 3; limit++ {
			wantCount := want.IntersectCountUpTo(y, limit)
			if got := b.IntersectCountUpToIn(y, limit, lo, hi); got != wantCount {
				t.Fatalf("trial %d: IntersectCountUpToIn(limit %d) = %d, want %d", trial, limit, got, wantCount)
			}
		}
	}
	if got := NewBitset(70).FirstIn(0, 2); got != -1 {
		t.Fatalf("FirstIn on an empty set = %d, want -1", got)
	}
}
