package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs is sorted in place. It returns 0 for no
// samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// durs converts durations to float64 in the given unit.
func durs(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// budget hands out a run's measuring time: each phase repeats its unit of
// work at least min times, and then while one more repetition of the
// average length so far still ends before the phase's deadline.
type budget struct {
	start    time.Time
	deadline time.Time
}

func newBudget(d time.Duration) budget {
	now := time.Now()
	return budget{start: now, deadline: now.Add(d)}
}

func (b budget) more(done, min int) bool {
	if done < min {
		return true
	}
	now := time.Now()
	return now.Add(now.Sub(b.start) / time.Duration(done)).Before(b.deadline)
}
