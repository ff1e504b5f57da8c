package main

import (
	"bytes"
	"math"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentile is the highest whole percentile of n samples that
// still has at least ten samples above it, the tail statistic the
// benchmark reports. Below 20 samples no percentile of 50 or more
// qualifies, and the maximum (percentile 100) is reported instead.
func tailPercentile(n int) int {
	for p := 99; p >= 50; p-- {
		if float64(n)*(1-float64(p)/100) >= 10 {
			return p
		}
	}
	return 100
}

// geomean returns the geometric mean of the positive values in xs
// (0 when there are none).
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// mean returns the arithmetic mean of xs (0 for an empty slice).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0, so an idle layer reads 0
// instead of NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rssSampler polls the process's resident set size while a workload's
// measured phase runs and keeps the samples, so a peak can be read over
// any window of the phase. Sampling (rather than the kernel's lifetime
// high-water mark) keeps set-up and reference computation out of the
// figure.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	mu      sync.Mutex
	samples []rssSample
}

type rssSample struct {
	at  time.Time
	rss int64
}

func startRSS() *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	r.sample()
	go func() {
		defer close(r.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-t.C:
				r.sample()
			}
		}
	}()
	return r
}

func (r *rssSampler) sample() {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return
	}
	pages, err := strconv.ParseInt(string(f[1]), 10, 64)
	if err != nil {
		return
	}
	r.mu.Lock()
	r.samples = append(r.samples, rssSample{time.Now(), pages * int64(os.Getpagesize())})
	r.mu.Unlock()
}

// finish stops the sampler and waits for its goroutine.
func (r *rssSampler) finish() {
	close(r.stop)
	<-r.done
	r.sample()
}

// peak is the highest sample in [from, to], in MiB.
func (r *rssSampler) peak(from, to time.Time) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var max int64
	for _, s := range r.samples {
		if !s.at.Before(from) && !s.at.After(to) && s.rss > max {
			max = s.rss
		}
	}
	return float64(max) / (1 << 20)
}

// medianPeak is the median over consecutive windows (bounded by the
// given times) of each window's peak. One collection landing at an
// unlucky moment then moves one window, not the figure.
func (r *rssSampler) medianPeak(bounds []time.Time) float64 {
	var peaks []float64
	for i := 0; i+1 < len(bounds); i++ {
		peaks = append(peaks, r.peak(bounds[i], bounds[i+1]))
	}
	return median(peaks)
}
