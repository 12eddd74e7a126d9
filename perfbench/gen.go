package main

import (
	"math"
	"sort"

	"sud/internal/sim"
)

// rng is the benchmark's own input generator (splitmix64). It is kept here
// rather than borrowed from the simulator so that a change to the program
// can never change the inputs the benchmark feeds it.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n uint64) uint64 { return r.next() % n }

// unit returns a value in (0, 1].
func (r *rng) unit() float64 { return float64(r.next()>>11+1) / (1 << 53) }

// exp returns an exponentially distributed gap with the given mean.
func (r *rng) exp(mean sim.Duration) sim.Duration {
	return sim.Duration(-math.Log(r.unit()) * float64(mean))
}

// fill writes pseudo-random bytes into b.
func (r *rng) fill(b []byte) {
	for i := 0; i < len(b); i += 8 {
		v := r.next()
		for j := 0; j < 8 && i+j < len(b); j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
}

// stream derives an independent generator for one named input stream of a
// run, so each pipeline, connection or flow draws its own sequence and the
// inputs do not depend on the order in which the simulation consumes them.
func stream(seed uint64, name string, i uint64) *rng {
	h := uint64(14695981039346656037)
	for k := 0; k < len(name); k++ {
		h ^= uint64(name[k])
		h *= 1099511628211
	}
	r := &rng{s: seed ^ h}
	r.s ^= (&rng{s: i + r.next()}).next()
	return r
}

// quantileUS returns the p-quantile of samples in microseconds, by nearest
// rank — rank = round(p·n) clamped to [1, n], the convention trace.Hist
// uses.
func quantileUS(samples []sim.Duration, p float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]sim.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := min(max(int(p*float64(n)+0.5), 1), n)
	return float64(s[rank-1]) / float64(sim.Microsecond)
}

func mean(samples []sim.Duration) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, d := range samples {
		sum += float64(d)
	}
	return sum / float64(len(samples))
}

// median of host measurements (wall and set-up seconds across repetitions).
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
