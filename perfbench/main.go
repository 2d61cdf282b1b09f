// Command perfbench is the repository's host-time benchmark for
// recurring queries. It drives the engine from outside through its
// public layer entry points — workload generation, Engine/SourceHub
// ingest, Engine.RunNext, the plain-Hadoop baseline Driver.RunNext and
// oracle.Check — on one of four workloads, checks every output against
// an oracle-verified reference, and prints every metric by name with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate traced run reports the per-layer ones. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"redoop/internal/simtime"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees, reported by the
// untraced run.
var endToEnd = []metricDef{
	{"result_cpu_p50_ms", "ms", "lower"},
	{"result_cpu_tail_ms", "ms", "lower"},
	{"throughput_krec_cpu_s", "krec/s", "higher"},
	{"alloc_b_per_rec", "B/rec", "lower"},
	{"retained_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
	{"virt_response_ms", "ms", "lower"},
	{"ok_frac", "frac", "higher"},
}

// perLayer are the traced run's metrics, named <module>.<metric>. Host
// times and counts are per round: one fresh system driven over the
// whole generated stream.
var perLayer = append([]metricDef{
	{"workload.gen_s", "s", "lower"},
	{"workload.gen_alloc_mb", "MB", "lower"},
	{"core.ingest_s", "s", "lower"},
	{"core.ingest_p50_us", "us", "lower"},
	{"core.ingest_alloc_b_per_rec", "B/rec", "lower"},
	{"core.runnext_s", "s", "lower"},
	{"core.runnext_alloc_b_per_rec", "B/rec", "lower"},
	{"core.cold_window_ms", "ms", "lower"},
	{"core.new_panes", "count", "lower"},
	{"core.reused_panes", "count", "higher"},
	{"core.pane_reuse_ratio", "frac", "higher"},
	{"core.new_pairs", "count", "lower"},
	{"core.reused_pairs", "count", "higher"},
	{"core.cache_recoveries", "count", "lower"},
	{"core.cached_mb", "MB", "lower"},
	{"core.evictions", "count", "lower"},
	{"baseline.ingest_s", "s", "lower"},
	{"baseline.runnext_s", "s", "lower"},
	{"mapreduce.map_tasks", "count", "lower"},
	{"mapreduce.reduce_tasks", "count", "lower"},
	{"mapreduce.failed_attempts", "count", "lower"},
	{"mapreduce.read_mb", "MB", "lower"},
	{"mapreduce.local_read_frac", "frac", "higher"},
	{"mapreduce.shuffle_mb", "MB", "lower"},
	{"mapreduce.cache_read_mb", "MB", "lower"},
	{"mapreduce.output_mb", "MB", "lower"},
	{"mapreduce.virt_map_ms", "ms", "lower"},
	{"mapreduce.virt_shuffle_ms", "ms", "lower"},
	{"mapreduce.virt_reduce_ms", "ms", "lower"},
	{"reuse.exact_hits", "count", "higher"},
	{"reuse.subsume_hits", "count", "higher"},
	{"reuse.misses", "count", "lower"},
	{"reuse.hit_ratio", "frac", "higher"},
	{"reuse.published", "count", "lower"},
	{"reuse.dropped", "count", "lower"},
	{"account.cache_hits", "count", "higher"},
	{"account.saved_ms", "ms", "higher"},
	{"account.conservation_ok", "bool", "higher"},
	{"lineage.nodes", "count", "lower"},
	{"lineage.rebuilds", "count", "lower"},
	{"eventlog.dropped", "count", "lower"},
	{"oracle.check_s", "s", "lower"},
	{"oracle.check_alloc_mb", "MB", "lower"},
	{"runtime.gc_cpu_frac", "frac", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.alloc_objects_per_rec", "obj/rec", "lower"},
	{"parallel.speedup", "x", "higher"},
	{"trace.overhead_frac", "frac", "lower"},
	{"trace.coverage_frac", "frac", "higher"},
	{"bench.tail_pct", "pct", "higher"},
	{"bench.samples", "count", "higher"},
	{"bench.fail_frac", "frac", "lower"},
	{"wall.result_p50_ms", "ms", "lower"},
	{"wall.result_tail_ms", "ms", "lower"},
	{"wall.throughput_krec_s", "krec/s", "higher"},
	{"wall.setup_s", "s", "lower"},
}, cpuMetrics()...)

// cpuMetrics is the sampled CPU share of every module plus the sample
// count behind each share.
func cpuMetrics() []metricDef {
	var out []metricDef
	for _, m := range cpuModules {
		out = append(out,
			metricDef{"cpu." + m + "_frac", "frac", "lower"},
			metricDef{"cpu." + m + "_samples", "count", "lower"})
	}
	return out
}

const (
	// setups is how many times a run generates its inputs and builds a
	// system through its cold windows; setup_s is their median.
	setups = 3
	// coverageFloor is the least share of the traced phase's wall time
	// the top-level spans must cover.
	coverageFloor = 0.9
	// cpuProfileHz samples the traced phase finely enough for a few
	// thousand samples per run.
	cpuProfileHz = 500
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// spansDir is where traced runs write their spans, relative to the
// repository root the benchmark runs from.
var spansDir = filepath.Join(".bench_build", "spans")

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var opts options
	var trace int
	flag.StringVar(&opts.workload, "workload", "agg-incremental", "workload: agg-incremental, agg-recompute, join-incremental or fleet-shared")
	flag.Int64Var(&opts.seed, "seed", 42, "workload seed (0 means 42, as in experiments.Config)")
	flag.Float64Var(&opts.seconds, "seconds", 10, "timed phase length in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the timed one")
	flag.Parse()
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || opts.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	opts.trace = trace == 1
	if opts.seed == 0 {
		opts.seed = 42
	}
	runtime.GOMAXPROCS(execWorkers)
	res, err := run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func findWorkload(name string, sc scale) (*workloadSpec, error) {
	for _, ws := range workloads(sc) {
		if ws.name == name {
			return ws, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// run performs one benchmark run and returns its result; progress and
// every metric go to standard output as text.
func run(opts options) (*result, error) {
	ws, err := findWorkload(opts.workload, fullScale)
	if err != nil {
		return nil, err
	}
	fmt.Printf("perfbench %s seed=%d %s nproc=%d GOMAXPROCS=%d ExecWorkers=%d panes=%d pane=%s records/pane=%v trace=%v\n",
		ws.name, opts.seed, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), execWorkers,
		ws.panes, ws.paneUnit, ws.perPane, opts.trace)
	t0 := time.Now()
	b, err := newBench(ws, opts.seed)
	if err != nil {
		return nil, err
	}
	fmt.Printf("set-up and reference pass %.2fs\n", time.Since(t0).Seconds())
	budget := time.Duration(opts.seconds * float64(time.Second))
	var res *result
	if opts.trace {
		res, err = b.traced(budget)
	} else {
		res, err = b.timed(budget)
	}
	if err != nil {
		return nil, err
	}
	if b.refErr != nil {
		fmt.Println("reference:", b.refErr)
		res.Correct = false
	}
	for _, e := range b.errs {
		fmt.Println("failure:", e)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	return res, nil
}

// bench holds one run's generated inputs, reference and set-up figures.
type bench struct {
	ws     *workloadSpec
	seed   int64
	in     *inputs
	gen    []cost // one per set-up
	ref    *reference
	refErr error
	errs   []error
	anchor [][]simtime.Duration
}

// newBench generates the inputs setups times (checking that every
// generation is identical) and runs the oracle-verified reference pass.
func newBench(ws *workloadSpec, seed int64) (*bench, error) {
	b := &bench{ws: ws, seed: seed}
	m := newMeter(nil)
	var first digest
	for i := 0; i < setups; i++ {
		b.in = nil // drop the previous copy before generating the next
		runtime.GC()
		var in *inputs
		c, _ := m.call("workload.gen", 0, -1, func() error {
			in = generate(ws, seed)
			return nil
		})
		b.gen = append(b.gen, c)
		d := inputDigest(in)
		if i == 0 {
			first = d
		} else if d != first {
			return nil, fmt.Errorf("%s: generation %d of seed %d differs from the first", ws.name, i+1, seed)
		}
		b.in = in
	}
	d := b.driver(m, execWorkers)
	b.refErr = d.reference()
	b.ref = d.ref
	return b, nil
}

func (b *bench) driver(m *meter, workers int) *driver {
	return &driver{ws: b.ws, in: b.in, seed: b.seed, workers: workers, m: m, ref: b.ref, anchor: &b.anchor}
}

// timed is the untraced run: whole rounds for the budget, at least one
// per set-up, reporting the end-to-end metrics.
func (b *bench) timed(budget time.Duration) (*result, error) {
	base := liveHeap()
	d := b.driver(newMeter(nil), execWorkers)
	rounds, last, err := d.phase(budget, setups)
	if err != nil {
		return nil, err
	}
	retained := float64(liveHeap()) - float64(base)
	runtime.KeepAlive(last)

	res := b.result(rounds)
	var lat []float64
	var recs int
	var allocB uint64
	for _, st := range rounds {
		lat = append(lat, st.latencies...)
		recs += st.warmRecords
		allocB += st.ingest.bytes + st.run.bytes
	}
	tailP, _ := tailPercentile(len(lat))
	fmt.Printf("warm steps %d, tail percentile p%g, rounds %d\n", len(lat), tailP, len(rounds))
	for i, st := range rounds {
		fmt.Printf("round %d: step p50 %.2f cpu-ms %.2f wall-ms\n", i, median(st.latencies), median(st.wallLatencies))
	}
	put := res.put
	put("result_cpu_p50_ms", median(lat))
	put("result_cpu_tail_ms", percentile(lat, tailP))
	// A per-round median, like the step latencies, so a burst of CPU
	// contention from outside the process moves it less than a run-wide
	// total would.
	put("throughput_krec_cpu_s", perRound(rounds, func(st *roundStats) float64 {
		return float64(st.warmRecords) / st.warmCPU() / 1e3
	}))
	put("alloc_b_per_rec", float64(allocB)/float64(recs))
	put("retained_mb", retained/1e6)
	put("setup_s", b.setup(rounds, func(c cost) time.Duration { return c.cpu }))
	put("virt_response_ms", mean(rounds[0].virt))
	put("ok_frac", 1-ratio(res.Failed, res.Attempted))
	return res, nil
}

// setup is the median set-up time, by the clock f reads, over the first
// setups rounds: one input generation plus that round's system
// construction and cold windows.
func (b *bench) setup(rounds []*roundStats, f func(cost) time.Duration) float64 {
	var xs []float64
	for i, st := range rounds {
		if i < len(b.gen) {
			xs = append(xs, (f(b.gen[i]) + f(st.build) + f(st.cold)).Seconds())
		}
	}
	return median(xs)
}

// result tallies rounds into a result without metrics.
func (b *bench) result(rounds ...[]*roundStats) *result {
	res := &result{Correct: b.refErr == nil, Metrics: map[string]metricValue{}}
	for _, rs := range rounds {
		a, f, err := tally(rs)
		res.Attempted += a
		res.Failed += f
		if err != nil {
			b.errs = append(b.errs, err)
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	return res
}

func (r *result) put(name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				r.Metrics[name] = metricValue{Value: v, Unit: d.unit}
				return
			}
		}
	}
	panic("perfbench: undeclared metric " + name)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// traced is the per-layer run: an untraced phase, a traced phase with
// spans and a CPU profile, and a serial phase at one worker, each a
// third of the budget and at least one round (the untraced phase at
// least one per set-up).
func (b *bench) traced(budget time.Duration) (*result, error) {
	third := budget / 3
	plain, _, err := b.driver(newMeter(nil), execWorkers).phase(third, setups)
	if err != nil {
		return nil, err
	}

	tr := newTracer(b.ws.name)
	runtime.SetCPUProfileRate(cpuProfileHz) // StartCPUProfile keeps an already-set rate
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	rt0 := readRuntime()
	start := time.Now()
	traced, _, err := b.driver(newMeter(tr), execWorkers).phase(third, 1)
	end := time.Now()
	rt1 := readRuntime()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	cpu, err := foldCPUProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}

	serial, _, err := b.driver(newMeter(nil), 1).phase(third, 1)
	if err != nil {
		return nil, err
	}

	res := b.result(plain, traced, serial)
	coverage := tr.coverage(start, end)
	if coverage < coverageFloor {
		b.errs = append(b.errs, fmt.Errorf("trace coverage %.3f below floor %.2f", coverage, coverageFloor))
		res.Correct = false
	}
	if err := tr.write(filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.json", b.ws.name, b.seed))); err != nil {
		return nil, err
	}
	b.layerMetrics(res, plain, traced, serial, cpu, rt1.sub(rt0), coverage)
	return res, nil
}
