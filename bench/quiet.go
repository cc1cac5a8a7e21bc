package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// The box the benchmark runs on is a few virtual processors of a shared host,
// and each of them is one hardware thread of a core whose other thread runs
// whoever the host puts there. While that neighbour is busy, code that fills
// the core's execution units (the program under test: hashing, allocation,
// copying) runs at about half speed, and code that waits on one dependent
// instruction after the other runs as fast as ever. The neighbour comes and
// goes within tens of milliseconds, and for minutes at a time it is there
// most of the time: that is where the run-to-run spread of a third came from.
//
// A gate tells the two states apart with two short kernels and the clock: a
// chain of dependent multiplications, which a neighbour does not slow (it
// follows the core's clock), and eight independent chains, which a neighbour
// slows by a half to one and a half times. The ratio of the eight's time to
// the chain's does not depend on the clock and says how busy the other thread
// was: on a quiet core it repeats within half a per cent. An operation is
// measured with a quiet core when the probes before and after it both read
// within quietSlack of the pass's quiet ratio. The end-to-end timings of a
// gated workload are taken over those operations: they are measured, in
// their units, under a condition that holds on every run, instead of under
// whatever the host did.
type gate struct{ probes []probeTimes }

type probeTimes struct{ chain, wide time.Duration }

const (
	// probeSteps sizes each kernel to some 22 µs.
	probeSteps = 16384
	// quietSlack is how far above the pass's quiet ratio a probe's ratio may
	// lie and count as quiet. A busy neighbour adds 30% or more.
	quietSlack = 1.15
	// voidSlack is how far below the quiet ratio a probe's ratio may lie:
	// lower, and it was the chain that ran slow (a lost time slice, or the
	// clock stepped between the kernels), and the probe says nothing.
	voidSlack = 1.03
	// gateWarmups probes run before a gate's first operation, so that a pass
	// of few operations still has enough of them to find its quiet ratio.
	gateWarmups = 64
	// quietFloor is the share of a window's operations the timings are taken
	// from at least: when fewer are quiet, the quietest ones make it up.
	quietFloor = 0.2
)

// The kernels are kept out of line so that a call whose result is dropped is
// still made.
//
//go:noinline
func chainKernel(n int) uint64 {
	var x uint64 = 1
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	return x
}

//go:noinline
func wideKernel(n int) uint64 {
	var a, b, c, d, e, f, g, h uint64 = 1, 2, 3, 4, 5, 6, 7, 8
	for i := 0; i < n; i++ {
		a = a*3 + 1
		b = b*5 + 2
		c = c*7 + 3
		d = d*9 + 4
		e ^= e<<3 + 5
		f ^= f>>2 + 6
		g += g<<1 + 7
		h += h>>1 + 8
	}
	return a + b + c + d + e + f + g + h
}

func newGate() *gate {
	g := &gate{}
	for i := 0; i < gateWarmups; i++ {
		g.probe()
	}
	return g
}

// probe runs both kernels on the calling goroutine's processor and returns
// the probe's index.
func (g *gate) probe() int {
	t0 := time.Now()
	chainKernel(probeSteps)
	t1 := time.Now()
	wideKernel(probeSteps)
	g.probes = append(g.probes, probeTimes{t1.Sub(t0), time.Since(t1)})
	return len(g.probes) - 1
}

// disturbance returns, per probe of the pass, its ratio over the pass's quiet
// ratio: about 1 is a quiet core, quietSlack the most that counts as quiet,
// +Inf a void probe. The quiet ratio is the 10th percentile of the pass's
// ratios: the quiet probes lie within half a per cent of each other, so any
// low percentile finds them as long as the core was quiet for a tenth of the
// pass, and when it was not, the quietest tenth stands in. It is not the
// lowest ratio: some probes in a hundred read up to 20% low. Call it after
// the pass.
func (g *gate) disturbance() []float64 {
	out := make([]float64, len(g.probes))
	for i, p := range g.probes {
		out[i] = float64(p.wide) / float64(max(p.chain, 1))
	}
	quiet := quantile(slices.Clone(out), 0.1)
	for i := range out {
		if out[i] /= quiet; out[i] < 1/voidSlack {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// between returns the disturbance of an operation that ran between two
// probes: the worse of the two.
func between(disturbance []float64, before, after int) float64 {
	return max(disturbance[before], disturbance[after])
}

// quietOps returns the latencies of the window's operations that were
// measured with a quiet core, and their share of all its operations. When
// that share is below quietFloor (a host that hardly ever leaves the core
// alone) the quietest operations make it up, so that the timings never rest
// on a handful. On a processor without a second hardware thread every probe
// is quiet, and so is every operation.
func (w *window) quietOps() ([]time.Duration, float64) {
	order := make([]int, len(w.lat))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return w.disturbed[order[a]] < w.disturbed[order[b]] })
	n := sort.Search(len(order), func(i int) bool { return w.disturbed[order[i]] > quietSlack })
	share := float64(n) / float64(max(len(order), 1))
	n = max(n, int(math.Ceil(quietFloor*float64(len(order)))))
	out := make([]time.Duration, n)
	for i, op := range order[:n] {
		out[i] = w.lat[op]
	}
	return out, share
}
