package main

import (
	"math"
	"math/bits"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// hist is a log-linear latency histogram over non-negative nanosecond
// values: exact below 256 ns, then 128 sub-buckets per power of two, so
// a reported quantile is within 0.8 % of the true sample. It records
// millions of deliveries in constant memory, which keeps the benchmark's
// own bookkeeping out of heap_mb.
type hist struct {
	counts []int64
	n      int64
}

const histSubBits = 7

func newHist() *hist { return &hist{counts: make([]int64, (65-histSubBits)<<histSubBits)} }

func histIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < 2<<histSubBits {
		return int(u)
	}
	shift := bits.Len64(u) - histSubBits - 1
	return (shift+1)<<histSubBits + int(u>>shift) - 1<<histSubBits
}

// histMid returns the midpoint of bucket i in nanoseconds.
func histMid(i int) float64 {
	if i < 2<<histSubBits {
		return float64(i)
	}
	shift := i>>histSubBits - 1
	lo := uint64(i&(1<<histSubBits-1)+1<<histSubBits) << shift
	return float64(lo) + float64(uint64(1)<<shift)/2
}

func (h *hist) add(ns int64) {
	h.counts[histIndex(ns)]++
	h.n++
}

// quantile returns the q-quantile in nanoseconds (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	r := rank(q, h.n)
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen >= r {
			return histMid(i)
		}
	}
	return histMid(len(h.counts) - 1)
}

// tailCandidates are the tail percentiles a latency is reported at.
var tailCandidates = []float64{0.999, 0.99, 0.9}

// tail returns the highest of tailCandidates that leaves at least ten
// samples above the bucket the percentile falls in; ok is false when
// none does.
func (h *hist) tail() (q float64, ok bool) {
	for _, q := range tailCandidates {
		if h.beyond(q) >= 10 {
			return q, true
		}
	}
	return 0, false
}

// rank is the 1-based rank of the q-quantile among n samples.
func rank(q float64, n int64) int64 {
	r := int64(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// beyond counts the samples above the bucket holding the q-quantile.
func (h *hist) beyond(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	r := rank(q, h.n)
	var seen int64
	for _, c := range h.counts {
		seen += c
		if seen >= r {
			return h.n - seen
		}
	}
	return 0
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMiB collects garbage and returns the live heap in MiB.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runtimeSample is a snapshot of the allocator and GC counters the
// runtime.* layer metrics are deltas of.
type runtimeSample struct {
	mallocs, allocBytes uint64
	gcCycles            uint32
	gcCPU, totalCPU     float64
}

var rtMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]metrics.Sample, len(rtMetrics))
	copy(s, rtMetrics)
	metrics.Read(s)
	return runtimeSample{
		mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC,
		gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(),
	}
}

// runtimeDelta is the runtime.* layer metrics between two samples,
// per op.
func runtimeDelta(a, b runtimeSample, ops int64, suffix string, out map[string]metric) {
	if ops < 1 {
		ops = 1
	}
	out["runtime.allocs_per_op."+suffix] = metric{float64(b.mallocs-a.mallocs) / float64(ops), "count"}
	out["runtime.alloc_kb_per_op."+suffix] = metric{float64(b.allocBytes-a.allocBytes) / 1024 / float64(ops), "KiB"}
	out["runtime.gc_cycles."+suffix] = metric{float64(b.gcCycles - a.gcCycles), "count"}
	frac := 0.0
	if d := b.totalCPU - a.totalCPU; d > 0 {
		frac = (b.gcCPU - a.gcCPU) / d
	}
	out["runtime.gc_cpu_frac."+suffix] = metric{frac, "1"}
}

// slices marks a timed phase at intervals. A run reports the median of
// the per-interval rates, so an interval in which another tenant of the
// machine took the CPU moves one interval, not the result.
type slices struct {
	t   []time.Time
	ops []int64
	cpu []time.Duration
}

// mark records that ops ops had completed by now.
func (s *slices) mark(ops int64) {
	s.t = append(s.t, time.Now())
	s.ops = append(s.ops, ops)
	s.cpu = append(s.cpu, cpuTime())
}

// medians returns the median over intervals of ops per second and of
// CPU microseconds per op.
func (s *slices) medians() (opsPerS, cpuUsPerOp float64) {
	var rates, cpus []float64
	for i := 1; i < len(s.t); i++ {
		n := float64(s.ops[i] - s.ops[i-1])
		if n <= 0 {
			continue
		}
		rates = append(rates, n/s.t[i].Sub(s.t[i-1]).Seconds())
		cpus = append(cpus, float64((s.cpu[i]-s.cpu[i-1]).Nanoseconds())/1e3/n)
	}
	return median(rates), median(cpus)
}

// setupRepeats is how many times a run builds its system from scratch.
const setupRepeats = 9

// setupTimes is what repeated from-scratch builds took: the medians of
// their CPU time (user+system) and of their wall time, in seconds.
type setupTimes struct{ cpu, wall float64 }

// repeatSetup builds a system setupRepeats times, each from scratch
// after a collection, tearing each down before the next, and returns
// the last. Single builds on a shared two-core machine vary by more
// than a tenth, so the run reports medians; setup_s is the CPU time,
// which other tenants' processes waiting for the same cores do not
// inflate (over twelve paper-scale builds: wall 0.22–0.33 s, CPU
// 0.21–0.26 s).
func repeatSetup[T any](build func() (T, error), teardown func(T)) (T, setupTimes, error) {
	var cpus, walls []float64
	var sys T
	for i := 0; i < setupRepeats; i++ {
		if i > 0 && teardown != nil {
			teardown(sys)
		}
		settle()
		c0, t0 := cpuTime(), time.Now()
		var err error
		if sys, err = build(); err != nil {
			return sys, setupTimes{}, err
		}
		walls = append(walls, time.Since(t0).Seconds())
		cpus = append(cpus, (cpuTime() - c0).Seconds())
	}
	return sys, setupTimes{cpu: median(cpus), wall: median(walls)}, nil
}

// setupMetrics adds setup_s to the result line and the wall time to
// the table.
func (o *outcome) setupMetrics(st setupTimes) {
	o.metrics["setup_s"] = metric{st.cpu, "s"}
	o.rows = append(o.rows, row{"setup_wall_s", "s", st.wall, setupRepeats})
}
