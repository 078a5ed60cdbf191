package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Sample is one request's fate in a closed loop.
type Sample struct {
	Index   int
	Latency time.Duration
	// End is when the request returned, from the start of the loop.
	End time.Duration
	Err error
}

// LoopResult summarizes one closed-loop pass.
type LoopResult struct {
	Samples []Sample
	// Wall is the timed region: from the start of the first request to
	// the end of the last one.
	Wall time.Duration
	// Window is the length of the equal windows the timed region is
	// cut into; WindowCPU[k] is the process CPU time at the start of
	// window k, for each window that ran to its end (plus its end).
	Window    time.Duration
	WindowCPU []time.Duration
}

// ClosedLoop runs clients goroutines against do. Each client takes the
// next request index, runs it under its own deadline and takes another
// only when it returns. No request starts after dur has elapsed
// (dur ≤ 0 means no time limit) or once limit requests have been
// issued. A request that errs or overruns its deadline fails. With a
// time limit, the timed region is cut into the given number of equal
// windows and the process CPU time is sampled at their boundaries.
func ClosedLoop(ctx context.Context, clients, limit int, dur, deadline time.Duration, windows int,
	do func(ctx context.Context, i int) error) LoopResult {
	var (
		next    atomic.Int64
		mu      sync.Mutex
		samples []Sample
		wg      sync.WaitGroup
		ticker  sync.WaitGroup
		res     LoopResult
	)
	stop := make(chan struct{})
	start := time.Now()
	if dur > 0 && windows > 0 {
		res.Window = dur / time.Duration(windows)
		res.WindowCPU = []time.Duration{cpuTime()}
		ticker.Add(1)
		go func() {
			defer ticker.Done()
			for k := 1; k <= windows; k++ {
				t := time.NewTimer(time.Until(start.Add(time.Duration(k) * res.Window)))
				select {
				case <-t.C:
					res.WindowCPU = append(res.WindowCPU, cpuTime())
				case <-stop:
					t.Stop()
					return
				}
			}
		}()
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if dur > 0 && time.Since(start) >= dur {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= limit {
					return
				}
				rctx, cancel := context.WithTimeout(ctx, deadline)
				t := time.Now()
				err := do(rctx, i)
				lat := time.Since(t)
				cancel()
				if err == nil && lat > deadline {
					err = fmt.Errorf("deadline %v overrun: %v", deadline, lat)
				}
				mu.Lock()
				samples = append(samples, Sample{Index: i, Latency: lat, End: time.Since(start), Err: err})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(stop)
	ticker.Wait()
	res.Samples, res.Wall = samples, time.Since(start)
	sort.Slice(res.Samples, func(i, j int) bool { return res.Samples[i].Index < res.Samples[j].Index })
	return res
}

// WindowRates returns, for each full window, the successful requests
// completed per second and the process CPU seconds per successful
// request. A request that spans a window boundary counts in each window
// by the share of its latency that falls inside it, so the rates are
// not rounded to whole requests per window.
func (r LoopResult) WindowRates() (rps, cpuPerReq []float64) {
	n := len(r.WindowCPU) - 1
	if n <= 0 {
		return nil, nil
	}
	w := r.Window.Seconds()
	done := make([]float64, n)
	for _, s := range r.Samples {
		if s.Err != nil {
			continue
		}
		lo, hi := (s.End - s.Latency).Seconds(), s.End.Seconds()
		if hi <= lo {
			if k := int(hi / w); k < n {
				done[k]++
			}
			continue
		}
		for k := int(lo / w); k < n && float64(k)*w < hi; k++ {
			done[k] += (min(hi, float64(k+1)*w) - max(lo, float64(k)*w)) / (hi - lo)
		}
	}
	for k := 0; k < n; k++ {
		rps = append(rps, done[k]/w)
		cpuPerReq = append(cpuPerReq, (r.WindowCPU[k+1]-r.WindowCPU[k]).Seconds()/done[k])
	}
	return rps, cpuPerReq
}

// Failed counts the failed samples.
func (r LoopResult) Failed() int {
	n := 0
	for _, s := range r.Samples {
		if s.Err != nil {
			n++
		}
	}
	return n
}

// FirstError returns the lowest-index failure, or nil.
func (r LoopResult) FirstError() error {
	for _, s := range r.Samples {
		if s.Err != nil {
			return fmt.Errorf("request %d: %w", s.Index, s.Err)
		}
	}
	return nil
}

// Percentile returns the nearest-rank q-quantile of the latencies in
// seconds, a failed request counting as +Inf.
func (r LoopResult) Percentile(q float64) float64 {
	lat := make([]float64, len(r.Samples))
	for i, s := range r.Samples {
		lat[i] = s.Latency.Seconds()
		if s.Err != nil {
			lat[i] = math.Inf(1)
		}
	}
	return Quantile(lat, q)
}

// Quantile is the nearest-rank q-quantile of xs (NaN when empty).
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// TrimmedMean returns the mean of xs without its lowest and highest
// value (the plain mean for fewer than three values; NaN when empty).
func TrimmedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) >= 3 {
		s = s[1 : len(s)-1]
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// Median returns the middle value of xs (the mean of the two middle
// values for an even count; NaN when empty).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// PeakRSSMiB reads the process's peak resident set size (VmHWM).
func PeakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
