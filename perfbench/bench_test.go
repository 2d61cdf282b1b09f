package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime/pprof"
	"slices"
	"testing"
	"time"

	"redoop/internal/records"
	"redoop/internal/simtime"
)

// tinyScale runs every workload on a twentieth of its records and half
// its stream, enough windows for warm steps and every self-check.
var tinyScale = scale{records: 20, panes: 2}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 0, ok: false},
		{n: 19, ok: false},
		{n: 20, want: 50, ok: true},
		{n: 39, want: 50, ok: true},
		{n: 40, want: 75, ok: true},
		{n: 99, want: 75, ok: true},
		{n: 100, want: 90, ok: true},
		{n: 199, want: 90, ok: true},
		{n: 200, want: 95, ok: true},
		{n: 999, want: 95, ok: true},
		{n: 1000, want: 99, ok: true},
		{n: 10000, want: 99.9, ok: true},
	} {
		got, ok := tailPercentile(tc.n)
		if ok != tc.ok || got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok {
			if beyond := tc.n - nearestRank(got, tc.n); beyond < minBeyondTail {
				t.Errorf("n=%d: p%v leaves %d samples beyond it", tc.n, got, beyond)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	if got := percentile(xs, 90); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	if got := percentile(xs, 100); got != 10 {
		t.Errorf("p100 = %v, want 10", got)
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !nameRE.MatchString(d.name) {
				t.Errorf("metric name %q does not match %s", d.name, nameRE)
			}
			if !unitRE.MatchString(d.unit) {
				t.Errorf("metric %s unit %q does not match %s", d.name, d.unit, unitRE)
			}
			if d.better != "lower" && d.better != "higher" {
				t.Errorf("metric %s: better = %q", d.name, d.better)
			}
			if seen[d.name] {
				t.Errorf("metric %s declared twice", d.name)
			}
			seen[d.name] = true
		}
	}
	for _, ws := range workloads(fullScale) {
		if !nameRE.MatchString(ws.name) {
			t.Errorf("workload name %q does not match %s", ws.name, nameRE)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the program: the
// same workloads and the same metrics, units and directions.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	ws := workloads(fullScale)
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, program has %d", len(spec.Workloads), len(ws))
	}
	for i, w := range spec.Workloads {
		if w.Name != ws[i].name || w.Why != ws[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, program %q/%q", i, w.Name, w.Why, ws[i].name, ws[i].why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			w := want[i]
			if m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, m, w)
			}
			if (m.Bound != nil) != bounded || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s %s: bad bound %v", kind, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}

func TestModuleOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"redoop/internal/core.(*Engine).RunNext"}, "core"},
		{[]string{"bytes.Compare", "redoop/internal/mapreduce.SortPairs"}, "mapreduce"},
		{[]string{"redoop/internal/window.Frame.PaneOf", "redoop/internal/core.(*Packer).Ingest"}, "core"},
		{[]string{"redoop/internal/obs/eventlog.(*Log).Append"}, "obs"},
		{[]string{"runtime.memmove", "runtime.mallocgc", "redoop/internal/queries.WCCMap"}, "gc"},
		{[]string{"runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"strconv.ParseInt", "redoop/internal/queries.SumCounts"}, "queries"},
		{[]string{"main.main"}, "other"},
		{nil, "other"},
	} {
		if got := moduleOf(tc.stack); got != tc.want {
			t.Errorf("moduleOf(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

// tinyBench generates a workload at tiny scale and runs its reference.
func tinyBench(t *testing.T, name string) *bench {
	t.Helper()
	ws, err := findWorkload(name, tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newBench(ws, 7)
	if err != nil {
		t.Fatal(err)
	}
	if b.refErr != nil {
		t.Fatal(b.refErr)
	}
	return b
}

// TestFlippedOutputCounted flips one byte of one recurrence's output and
// expects the check to count exactly that recurrence as failed.
func TestFlippedOutputCounted(t *testing.T) {
	b := tinyBench(t, "agg-incremental")
	d := b.driver(newMeter(nil), execWorkers)
	sys, err := b.ws.build(b.seed, execWorkers, false)
	if err != nil {
		t.Fatal(err)
	}
	rn := sys.runners[0]
	for p := 0; int64(p)*int64(b.ws.paneUnit) < rn.close(0); p++ {
		for src, batch := range b.in.batches[p] {
			if err := sys.ingest(src, batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	o, err := rn.run()
	if err != nil {
		t.Fatal(err)
	}
	b.anchor = make([][]simtime.Duration, 1)
	st := &roundStats{attempted: 2}
	if err := d.settle(st, sys, 0, o, true, false, true); err != nil {
		t.Fatal(err)
	}
	if st.failed != 0 {
		t.Fatalf("unmodified output counted as failed")
	}
	flipped := o
	flipped.output = append([]records.Pair(nil), o.output...)
	last := len(flipped.output) - 1
	v := append([]byte(nil), flipped.output[last].Value...)
	v[0] ^= 1
	flipped.output[last].Value = v
	if err := d.settle(st, sys, 0, flipped, true, false, false); err != nil {
		t.Fatal(err)
	}
	if st.failed != 1 {
		t.Fatalf("flipped output: failed = %d, want 1", st.failed)
	}
	res := b.result([]*roundStats{st})
	if res.Correct || res.Failed != 1 || ratio(res.Failed, res.Attempted) != 0.5 {
		t.Fatalf("result = %+v, want one of two recurrences failed", res)
	}
}

// TestTinyWorkloads runs one round of every workload at tiny scale and
// requires every recurrence to match the reference and every self-check
// to pass.
func TestTinyWorkloads(t *testing.T) {
	for _, ws := range workloads(tinyScale) {
		t.Run(ws.name, func(t *testing.T) {
			b := tinyBench(t, ws.name)
			rounds, _, err := b.driver(newMeter(nil), execWorkers).phase(0, 1)
			if err != nil {
				t.Fatal(err)
			}
			st := rounds[0]
			if st.err != nil || st.checkErr != nil || st.failed != 0 {
				t.Fatalf("round: err=%v self-check=%v failed=%d of %d", st.err, st.checkErr, st.failed, st.attempted)
			}
			if len(st.latencies) == 0 {
				t.Fatalf("no warm steps")
			}
		})
	}
}

// TestFoldCPUProfile decodes a real CPU profile of a busy loop and
// expects its samples to fold into the listed modules.
func TestFoldCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := uint64(1)
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		x = mix64(x)
	}
	pprof.StopCPUProfile()
	counts, err := foldCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for m, n := range counts {
		if !slices.Contains(cpuModules, m) {
			t.Errorf("sample folded into unlisted module %q", m)
		}
		total += n
	}
	if total == 0 {
		t.Fatalf("no samples decoded from a 300 ms busy loop (x=%d)", x)
	}
	if _, err := foldCPUProfile([]byte("not a profile")); err == nil {
		t.Errorf("garbage input decoded without error")
	}
}
