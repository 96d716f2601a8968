package main

import (
	"fmt"
	"math/bits"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The reference is a fixed computation the benchmark runs beside the
// program, to measure how fast the host runs this kind of code at that
// moment: it counts the maximal cliques of a fixed random graph with
// bitset Bron–Kerbosch, the same mix of bitset work, branches and small
// allocations as REGIMap's clique search.
//
// On a shared host (measured on a 2-CPU Intel Xeon container) the speed of
// that code moved by a quarter within a minute, in steps that lasted
// seconds, while a SHA-256 loop stayed within 4%: neighbours contend for
// caches and memory, not for arithmetic. CPU time does not remove that, a
// ratio to the reference does. In a minute of interleaved runs there, five
// hard paper-suite kernels and the reference moved together (correlation
// 0.93); the kernels' CPU time spread 0.19 between quartiles, their ratio
// to the reference 0.07.
//
// The reference is benchmark code, so no change to the program moves it.
// Changing it re-bases every pass_ref figure.
const (
	refVertices = 90                 // about 5 ms of work per chunk
	refSeed     = 0x139c5ae1f2d6e3b7 // edge draws; never change
	refCliques  = 11226              // the graph's maximal cliques
	// refNominal is the chunk time setup_s is scaled to, about what the
	// 2-CPU Xeon container the benchmark was tuned on takes when its host
	// is quiet.
	refNominal = 3 * time.Millisecond
)

// refSet is a vertex bitset; its operations allocate, as the program's do.
type refSet []uint64

func newRefSet() refSet { return make(refSet, (refVertices+63)/64) }

func (s refSet) and(o refSet) refSet {
	out := newRefSet()
	for i := range s {
		out[i] = s[i] & o[i]
	}
	return out
}

func (s refSet) count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// refGraph builds the reference graph afresh for every chunk.
func refGraph() []refSet {
	adj := make([]refSet, refVertices)
	for i := range adj {
		adj[i] = newRefSet()
	}
	x := uint64(refSeed)
	for i := 0; i < refVertices; i++ {
		for j := i + 1; j < refVertices; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			if x%1000 < 500 {
				adj[i][j/64] |= 1 << (j % 64)
				adj[j][i/64] |= 1 << (i % 64)
			}
		}
	}
	return adj
}

// maximalCliques counts the maximal cliques that extend a clique by
// vertices of p and contain none of x, pivoting on the vertex of p|x with
// the most neighbours in p.
func maximalCliques(adj []refSet, p, x refSet) int {
	if p.count() == 0 && x.count() == 0 {
		return 1
	}
	best, pivot := -1, 0
	for i := range p {
		for w := p[i] | x[i]; w != 0; w &= w - 1 {
			u := i*64 + bits.TrailingZeros64(w)
			if c := adj[u].and(p).count(); c > best {
				best, pivot = c, u
			}
		}
	}
	cand := newRefSet()
	for i := range p {
		cand[i] = p[i] &^ adj[pivot][i]
	}
	n := 0
	for i, w := range cand {
		for ; w != 0; w &= w - 1 {
			v := i*64 + bits.TrailingZeros64(w)
			n += maximalCliques(adj, p.and(adj[v]), x.and(adj[v]))
			p[v/64] &^= 1 << (v % 64)
			x[v/64] |= 1 << (v % 64)
		}
	}
	return n
}

// refChunk runs the reference once and returns the processor time its
// thread spent on it. The goroutine keeps its thread for the duration, so
// work other goroutines do meanwhile (a server's job workers) is not
// counted.
func refChunk() (time.Duration, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPUTime()
	all := newRefSet()
	for v := 0; v < refVertices; v++ {
		all[v/64] |= 1 << (v % 64)
	}
	n := maximalCliques(refGraph(), all, newRefSet())
	dt := threadCPUTime() - t0
	if n != refCliques {
		return dt, fmt.Errorf("reference found %d maximal cliques, want %d", n, refCliques)
	}
	return dt, nil
}

// threadCPUTime is the processor time the calling thread has used.
func threadCPUTime() time.Duration {
	const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
