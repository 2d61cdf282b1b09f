package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// meter times calls into the system and counts the heap bytes and
// objects they allocate, from runtime/metrics. Every call is timed twice:
// wall clock, and CPU time of the whole process (all threads, so the
// engine's workers and the collector count). CPU time is what the gated
// metrics use: on a shared virtual machine the hypervisor steals CPU
// from the guest, which stretches wall time by tens of percent from one
// minute to the next but is not charged to the process. With a tracer
// attached the meter also records a span per call.
type meter struct {
	samples []metrics.Sample
	tr      *tracer
}

func newMeter(tr *tracer) *meter {
	return &meter{
		samples: []metrics.Sample{
			{Name: "/gc/heap/allocs:bytes"},
			{Name: "/gc/heap/allocs:objects"},
		},
		tr: tr,
	}
}

// cost is what one measured call took.
type cost struct {
	wall, cpu time.Duration
	bytes     uint64
	objs      uint64
}

func (c *cost) add(o cost) {
	c.wall += o.wall
	c.cpu += o.cpu
	c.bytes += o.bytes
	c.objs += o.objs
}

// processCPU returns the user and system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("perfbench: getrusage: " + err.Error()) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (m *meter) allocs() (uint64, uint64) {
	metrics.Read(m.samples)
	return m.samples[0].Value.Uint64(), m.samples[1].Value.Uint64()
}

// call runs fn and returns its cost. The span, when tracing, is a child
// of parent and carries the recurrence id rec.
func (m *meter) call(name string, parent int, rec int, fn func() error) (cost, error) {
	b0, o0 := m.allocs()
	cpu0 := processCPU()
	start := time.Now()
	err := fn()
	end := time.Now()
	cpu1 := processCPU()
	b1, o1 := m.allocs()
	c := cost{wall: end.Sub(start), cpu: cpu1 - cpu0, bytes: b1 - b0, objs: o1 - o0}
	m.tr.record(name, parent, rec, start, end, c.cpu, c.bytes)
	return c, err
}

// liveHeap forces full collections and returns the live heap bytes. The
// second collection empties the sync.Pool victim caches the first one
// only demotes, so pooled scratch buffers do not count as retained.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runtimeCounters are the process-wide runtime figures a phase reports
// as deltas.
type runtimeCounters struct {
	gcCPU, totalCPU float64
	gcCycles        uint64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return runtimeCounters{gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(), gcCycles: s[2].Value.Uint64()}
}

// median returns the middle value (mean of the middle two), 0 when empty.
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

// tailLadder is the set of percentiles the tail metric chooses from,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyondTail is how many samples must lie beyond the reported tail.
const minBeyondTail = 10

// tailPercentile picks the highest percentile of tailLadder that leaves
// at least minBeyondTail of n samples strictly beyond its nearest-rank
// position. ok is false when even the median leaves fewer.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if n-nearestRank(p, n) >= minBeyondTail {
			return p, true
		}
	}
	return 0, false
}

// nearestRank is the 1-based rank of percentile p among n samples.
func nearestRank(p float64, n int) int {
	// The epsilon keeps float error (99.9/100*10000 = 9990.000000000002)
	// from pushing an exact rank one place up.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank percentile p of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(p, len(s))-1]
}
