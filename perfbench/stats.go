package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// samples collects durations from concurrent goroutines.
type samples struct {
	mu    sync.Mutex
	v     []float64 // seconds
	total float64
}

func (s *samples) add(d time.Duration) { s.addSeconds(d.Seconds()) }

func (s *samples) addSeconds(x float64) {
	s.mu.Lock()
	s.v = append(s.v, x)
	s.total += x
	s.mu.Unlock()
}

func (s *samples) reset() {
	s.mu.Lock()
	s.v, s.total = s.v[:0], 0
	s.mu.Unlock()
}

// sum returns the sum of the samples.
func (s *samples) sum() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

func (s *samples) snapshot() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.v...)
}

// quantile returns the q-quantile of v by linear interpolation between
// closest ranks, or 0 for an empty slice. v is not modified.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// Every workload reports its latencies with sliceQuantile, over at most
// maxSlices slices of at least minSlice samples each.
const (
	maxSlices = 15
	minSlice  = 10
)

// sliceQuantile is how every workload reports a gated latency. The
// samples v, in the order they were taken, are cut into consecutive
// slices of equal size, and so are the host probe's round trips rtts,
// taken between them in the same span of time. Each slice's q-quantile is
// scaled to refRTT by its own round trips (hostScale), and the figure is
// the median over slices. The scaling takes out the host's speed, which
// wanders over seconds; a stall too short for the probe to see falls
// into a few consecutive slices and moves the median only when it lasts
// most of the run. A slower program is slower in every slice and moves
// the figure fully. Fewer samples give fewer slices, down to one. With no
// round trips the quantiles are not scaled.
func sliceQuantile(v, rtts []float64, q float64) float64 {
	n := max(min(maxSlices, len(v)/minSlice), 1)
	if len(rtts) > 0 {
		n = min(n, len(rtts))
	}
	qs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		qs = append(qs, hostScale(quantile(v[i*len(v)/n:(i+1)*len(v)/n], q), rtts[i*len(rtts)/n:(i+1)*len(rtts)/n]))
	}
	return median(qs)
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
