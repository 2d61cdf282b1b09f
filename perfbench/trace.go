package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one call from the benchmark into a layer entry point (or the
// benchmark's own step and verification work around those calls).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a top-level span
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Round    int    `json:"round"`
	Rec      int    `json:"rec"` // recurrence id, -1 when none
	StartNS  int64  `json:"startNS"`
	EndNS    int64  `json:"endNS"`
	CPUNS    int64  `json:"cpuNS"` // process CPU time, all threads
	AllocB   uint64 `json:"allocBytes"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	workload string
	origin   time.Time
	round    int
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now()}
}

func (t *tracer) record(name string, parent, rec int, start, end time.Time, cpu time.Duration, allocB uint64) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Workload: t.workload, Round: t.round, Rec: rec,
		StartNS: start.Sub(t.origin).Nanoseconds(), EndNS: end.Sub(t.origin).Nanoseconds(),
		CPUNS: cpu.Nanoseconds(), AllocB: allocB,
	})
	return id
}

// begin opens a span whose children are recorded before it ends.
func (t *tracer) begin(name string, parent, rec int) int {
	now := time.Now()
	return t.record(name, parent, rec, now, now, 0, 0)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].EndNS = time.Since(t.origin).Nanoseconds()
}

// coverage is the share of the wall time between from and to that
// top-level spans cover. Top-level spans never overlap: the benchmark
// has one driver goroutine.
func (t *tracer) coverage(from, to time.Time) float64 {
	lo, hi := from.Sub(t.origin).Nanoseconds(), to.Sub(t.origin).Nanoseconds()
	if hi <= lo {
		return 0
	}
	var covered int64
	for _, s := range t.spans {
		if s.Parent != 0 {
			continue
		}
		a, b := max(s.StartNS, lo), min(s.EndNS, hi)
		if b > a {
			covered += b - a
		}
	}
	return float64(covered) / float64(hi-lo)
}

// write stores the spans as JSON at path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
