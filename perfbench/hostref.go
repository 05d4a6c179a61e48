package main

import "time"

// The host this benchmark was tuned on changed speed by up to half over
// periods of seconds to minutes, with no steal time: the same operation
// took 190 ms in one pass and 390 ms in another, and its CPU time moved
// with its wall time. So the meter times a fixed reference kernel every
// refEvery between operations and scales each operation's time by
// refNominal over the reference times measured around it. Of the
// kernels tried beside long tester and bug-hunt runs (an arithmetic
// loop, an allocating list-and-map build, random read-modify-writes over
// 64 MB, a pointer chase over 16 MB, and lookups in a prebuilt map),
// the lookups followed the drift best: they cut the spread of the same
// inputs' latency between 25 s windows of a tester run from 8% to 2%
// (coefficient of variation), and between 80-round stretches of a
// bug-hunt run from 4.6% to 2.1%. The kernel uses no repository code, so
// a change to the system under test moves the scaled times in full.
const (
	refEvery = 250 * time.Millisecond
	// refNominal is the kernel's typical time on the tuning host (a
	// 2-vCPU Intel Xeon); scaled times read in ms at that speed.
	refNominal = 16.0 // ms
	// refSide reference samples on each side of an operation form the
	// window whose median scales it.
	refSide = 2
)

const (
	refKeys    = 1 << 18
	refLookups = 200_000
	refMul     = 0x9e3779b97f4a7c15
)

// refTable is built once per process and only read afterwards, so the
// kernel neither allocates nor depends on the heap the workload left.
var refTable = func() map[uint64]uint64 {
	t := make(map[uint64]uint64, refKeys)
	for i := uint64(0); i < refKeys; i++ {
		t[i*refMul] = i
	}
	return t
}()

// refKernel performs refLookups lookups spread over refTable and returns
// their sum, which the caller keeps so the work is not optimised away.
func refKernel() uint64 {
	var s uint64
	for i := uint64(0); i < refLookups; i++ {
		s += refTable[((i*2654435761)&(refKeys-1))*refMul]
	}
	return s
}

var refSink uint64

// timeRef runs the reference kernel once and returns its time in ms.
func timeRef() float64 {
	t0 := time.Now()
	refSink += refKernel()
	return float64(time.Since(t0)) / 1e6
}

// scale is the factor that converts a time measured when k reference
// samples had been taken into reference-speed time: refNominal over the
// median of the samples around it (refSide before k, refSide from k on).
func scale(ref []float64, k int) float64 {
	if len(ref) == 0 {
		return 1
	}
	lo, hi := max(0, k-refSide), min(len(ref), k+refSide)
	if lo >= hi {
		lo = max(0, hi-2*refSide)
	}
	return refNominal / median(ref[lo:hi])
}
