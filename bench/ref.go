package main

import (
	"math"
	"sort"
	"time"
)

// Host-speed normalisation. The sandbox this benchmark runs in drifts: the
// same binary on the same input ran 20–27 % apart over ten runs, and up to
// 59 % apart between quiet and slow spells; process CPU time drifted as much
// as wall time, so it is the host that slows down, not the scheduler that
// steals. Every timing is therefore divided by a host factor read off a
// fixed, allocation-free reference pass taken right next to it.

// refNominalMs is the duration one reference pass is scaled to: a timing
// measured while a pass took 10 ms is reported as it is.
const refNominalMs = 10.0

const (
	refInts   = 20000
	refBytes  = 1 << 20
	refChase  = 1 << 16
	refRounds = 3 // sized so one pass takes about refNominalMs on the 2-vCPU sandbox
)

// refKernel is the reference pass's preallocated memory: a pass sorts
// pseudo-random ints (branches), hashes a buffer (dependent multiplies) and
// walks a random cycle (cache latency), and allocates nothing.
type refKernel struct {
	ints  []int
	buf   []byte
	next  []uint32
	state uint64
	sink  uint64
}

func newRefKernel() *refKernel {
	r := &refKernel{
		ints:  make([]int, refInts),
		buf:   make([]byte, refBytes),
		next:  make([]uint32, refChase),
		state: 0x9e3779b97f4a7c15,
	}
	for i := range r.buf {
		r.buf[i] = byte(r.rand())
	}
	// Sattolo's algorithm: one cycle through every slot, so the chase
	// cannot settle into a short loop.
	for i := range r.next {
		r.next[i] = uint32(i)
	}
	for i := len(r.next) - 1; i > 0; i-- {
		j := int(r.rand() % uint64(i))
		r.next[i], r.next[j] = r.next[j], r.next[i]
	}
	return r
}

func (r *refKernel) rand() uint64 {
	r.state ^= r.state << 13
	r.state ^= r.state >> 7
	r.state ^= r.state << 17
	return r.state
}

// pass runs the reference work once and returns its duration in
// milliseconds.
func (r *refKernel) pass() float64 {
	start := time.Now()
	for round := 0; round < refRounds; round++ {
		for i := range r.ints {
			r.ints[i] = int(r.rand() >> 1)
		}
		sort.Ints(r.ints)
		h := uint64(14695981039346656037)
		for _, b := range r.buf {
			h = (h ^ uint64(b)) * 1099511628211
		}
		at := uint32(h) % refChase
		for i := 0; i < refChase; i++ {
			at = r.next[at]
		}
		r.sink += h + uint64(at) + uint64(r.ints[0])
	}
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// refSensitivity is how much harder a slow spell of the host hits the
// platform than it hits the reference pass. A slow spell here is contention
// for what the two vCPUs share with their neighbours, and the pass, which is
// mostly arithmetic on cache-resident data, feels it less than a Go program
// allocating and chasing pointers through a few hundred MiB. Over 31 rounds
// of all four workloads spanning quiet and slow spells, the logarithm of the
// time a fixed piece of a workload took, regressed on the logarithm of the
// median pass next to it, had slope 1.9 to 2.3 on every workload and a
// residual of 4–5 %; dividing by the pass time itself (slope 1) left 8–10 %.
// Memory-bound kernels (random walks over 64 and 256 MiB, streaming and
// scattered writes, an allocating one) had slopes nearer 1 but residuals of
// 4–12 %: they are themselves noisier than what they would correct. So the
// pass stays as the thermometer, and its reading is squared.
const refSensitivity = 2.0

// hostFactor turns a reference-pass duration into the factor the timings
// taken next to it are divided by: above 1 on a slow host.
func hostFactor(passMs float64) float64 {
	return math.Pow(passMs/refNominalMs, refSensitivity)
}

// speedFactor is the host factor of a block: that of the mean of the two
// passes around it.
func speedFactor(beforeMs, afterMs float64) float64 {
	return hostFactor((beforeMs + afterMs) / 2)
}
