package main

import (
	"fmt"

	"redoop/internal/account"
	"redoop/internal/baseline"
	"redoop/internal/core"
	"redoop/internal/experiments"
	"redoop/internal/health"
	"redoop/internal/lineage"
	"redoop/internal/mapreduce"
	"redoop/internal/obs"
	"redoop/internal/oracle"
	"redoop/internal/queries"
	"redoop/internal/records"
	"redoop/internal/reuse"
	"redoop/internal/simtime"
	"redoop/internal/workload"
)

// execWorkers is the mapreduce compute pool size of every timed run; the
// benchmark also pins GOMAXPROCS to the same value.
const execWorkers = 2

// workloadSpec is one benchmark workload: the input stream a seed
// generates, the system built over it, and the self-check every round
// must pass so the workload cannot silently stop exercising its layer.
type workloadSpec struct {
	name string
	// why is the one-line reason the workload exists.
	why string
	// panes is the stream length of one round, in panes of paneUnit.
	panes int
	// paneUnit is the batch granularity: one batch per source per pane.
	paneUnit simtime.Duration
	// perPane is the record count of each source's batch.
	perPane []int
	gen     func(seed int64, src int, start, end int64, n int) []records.Record
	build   func(seed int64, workers int, withOracle bool) (*system, error)
	check   func(r *roundStats) error
	// crossCheck, when set, verifies the reference pass against an
	// independent run of the same workload.
	crossCheck func(ws *workloadSpec, seed int64, ref *reference) error
}

// scale shrinks every workload's per-pane volume and stream length for
// the benchmark's own tests; 1 is the measured size.
type scale struct{ records, panes int }

var fullScale = scale{records: 1, panes: 1}

const (
	window60 = 60 * simtime.Minute
	slide6   = 6 * simtime.Minute
	slide15  = 15 * simtime.Minute
)

// baseConfig is the simulated cluster of experiments.Default(): 10
// nodes with 6 map and 2 reduce slots, 16 KiB blocks, 20 reducers.
func baseConfig(seed int64, workers int) experiments.Config {
	cfg := experiments.Default()
	cfg.Seed = seed
	cfg.ExecWorkers = workers
	return cfg
}

func wccGen(seed int64, _ int, start, end int64, n int) []records.Record {
	return workload.WCC(workload.DefaultWCC(seed), start, end, n)
}

func ffgGen(seed int64, src int, start, end int64, n int) []records.Record {
	cfg := workload.DefaultFFG(seed)
	if src == 0 {
		return workload.FFGReadings(cfg, start, end, n)
	}
	return workload.FFGEvents(cfg, start, end, n)
}

// workloads returns the four workloads at the given scale.
func workloads(sc scale) []*workloadSpec {
	per := func(n int) int { return n / sc.records }
	return []*workloadSpec{
		{
			name:     "agg-incremental",
			why:      "Q1 on the bare engine, 60/6-min window, 120k WCC records per window: one new pane per recurrence, nine cached pane outputs merged",
			panes:    40 / sc.panes,
			paneUnit: slide6,
			perPane:  []int{per(12000)},
			gen:      wccGen,
			build:    buildAggIncremental,
			check:    checkPaneReuse,
		},
		{
			name:     "agg-recompute",
			why:      "the same stream and Q1 through the plain-Hadoop driver, which re-maps, re-shuffles and re-reduces every window: mapreduce work, no caches",
			panes:    34 / sc.panes,
			paneUnit: slide6,
			perPane:  []int{per(12000)},
			gen:      wccGen,
			build:    buildAggRecompute,
			check:    checkNoCacheReads,
		},
		{
			name:     "join-incremental",
			why:      "Q2 over two sources, 60/6-min window, 15k readings and 3.75k events per window: cached pane-pair joins dominate",
			panes:    30 / sc.panes,
			paneUnit: slide6,
			perPane:  []int{per(1500), per(375)},
			gen:      ffgGen,
			build:    buildJoinIncremental,
			check:    checkPairReuse,
		},
		{
			name:       "fleet-shared",
			why:        "three Q1s on one 60k-record-per-window hub stream with reuse index, ledger, lineage, health, observer and a 24 KiB cache limit",
			panes:      44 / sc.panes,
			paneUnit:   slide15,
			perPane:    []int{per(15000)},
			gen:        wccGen,
			build:      buildFleetShared,
			check:      checkFleet,
			crossCheck: crossCheckFleet,
		},
	}
}

// system is one freshly built instance of a workload's recurring
// queries over a new simulated cluster.
type system struct {
	// ingest delivers one batch through the workload's ingest entry
	// point; ingestLayer names that entry point in spans and metrics.
	ingest      func(src int, recs []records.Record) error
	ingestLayer string
	runners     []*runner
	// fed counts the panes delivered so far.
	fed int

	mr   *mapreduce.Engine
	ctrl *core.Controller
	idx  *reuse.Index
	acct *account.Ledger
	lin  *lineage.Store
	obs  *obs.Observer
}

// runner drives one recurring query: a Redoop engine or the baseline
// driver, with the oracle attached in the reference pass.
type runner struct {
	name  string
	eng   *core.Engine
	drv   *baseline.Driver
	ora   *oracle.Oracle
	close func(r int) int64
}

func (r *runner) next() int {
	if r.eng != nil {
		return r.eng.NextRecurrence()
	}
	return r.drv.NextRecurrence()
}

func (r *runner) layer() string {
	if r.eng != nil {
		return "core.Engine.RunNext"
	}
	return "baseline.Driver.RunNext"
}

// outcome is one recurrence's result, whichever driver produced it.
type outcome struct {
	rec    int
	output []records.Pair
	stats  mapreduce.Stats
	virt   simtime.Duration
	core   *core.RecurrenceResult
}

func (r *runner) run() (outcome, error) {
	if r.eng != nil {
		res, err := r.eng.RunNext()
		if err != nil {
			return outcome{}, err
		}
		return outcome{rec: res.Recurrence, output: res.Output, stats: res.Stats, virt: res.ResponseTime, core: res}, nil
	}
	res, err := r.drv.RunNext()
	if err != nil {
		return outcome{}, err
	}
	return outcome{rec: res.Recurrence, output: res.Output, stats: res.Stats, virt: res.ResponseTime}, nil
}

func closeOf(q *core.Query) (func(int) int64, error) {
	frames, err := q.Frames()
	if err != nil {
		return nil, err
	}
	return frames[0].WindowClose, nil
}

// engineSystem builds a single-engine system around q.
func engineSystem(seed int64, workers int, withOracle bool, q *core.Query) (*system, error) {
	mr := baseConfig(seed, workers).NewRuntime(1)
	var lin *lineage.Store
	if withOracle {
		// The oracle's lineage audit needs provenance to check.
		lin = lineage.New(0)
	}
	eng, err := core.NewEngine(core.Config{MR: mr, Query: q, Lineage: lin})
	if err != nil {
		return nil, err
	}
	closeAt, err := closeOf(q)
	if err != nil {
		return nil, err
	}
	rn := &runner{name: q.Name, eng: eng, close: closeAt}
	sys := &system{ingest: eng.Ingest, ingestLayer: "core.Engine.Ingest", runners: []*runner{rn}, mr: mr, ctrl: eng.Controller(), lin: lin}
	if withOracle {
		if rn.ora, err = oracle.New(eng); err != nil {
			return nil, err
		}
		sys.ingest = rn.ora.WrapIngest(eng.Ingest)
	}
	return sys, nil
}

func buildAggIncremental(seed int64, workers int, withOracle bool) (*system, error) {
	cfg := baseConfig(seed, workers)
	return engineSystem(seed, workers, withOracle, queries.WCCAggregation("q1", window60, slide6, cfg.Reducers))
}

// buildAggRecompute drives Q1 through the baseline driver. Its reference
// outputs come from the oracle-verified engine run of the same query
// over the same stream, so in the reference pass it builds that engine.
func buildAggRecompute(seed int64, workers int, withOracle bool) (*system, error) {
	if withOracle {
		return buildAggIncremental(seed, workers, true)
	}
	cfg := baseConfig(seed, workers)
	mr := cfg.NewRuntime(2)
	q := queries.WCCAggregation("q1", window60, slide6, cfg.Reducers)
	drv, err := baseline.NewDriver(mr, q)
	if err != nil {
		return nil, err
	}
	closeAt, err := closeOf(q)
	if err != nil {
		return nil, err
	}
	return &system{
		ingest:      drv.Ingest,
		ingestLayer: "baseline.Driver.Ingest",
		runners:     []*runner{{name: q.Name, drv: drv, close: closeAt}},
		mr:          mr,
	}, nil
}

func buildJoinIncremental(seed int64, workers int, withOracle bool) (*system, error) {
	cfg := baseConfig(seed, workers)
	return engineSystem(seed, workers, withOracle, queries.FFGJoin("q2", window60, slide6, cfg.Reducers))
}

// fleetCacheLimit is the per-node local byte budget of fleet-shared,
// small enough that cost-based eviction fires on most recurrences.
const fleetCacheLimit = 24 << 10

// fleetQueries is experiments.RunCrossQueryReuse's trio at a 15-min
// slide: two identical 60/15-min Q1s (exact reuse) and a 30-min
// tumbling roll-up (subsumed reuse), all on the shared "wcc" stream.
func fleetQueries(reducers int) []*core.Query {
	mk := func(name string, win, sl simtime.Duration) *core.Query {
		q := queries.WCCAggregation(name, win, sl, reducers)
		q.Sources[0].CacheKey = "wcc"
		return q
	}
	return []*core.Query{
		mk("fig6-a", window60, slide15),
		mk("fig6-b", window60, slide15),
		mk("rollup-2x", 2*slide15, 2*slide15),
	}
}

func buildFleetShared(seed int64, workers int, withOracle bool) (*system, error) {
	cfg := baseConfig(seed, workers)
	o := obs.New()
	cfg.Obs = o
	mr := cfg.NewRuntime(3)
	ctrl := core.NewController()
	hub := core.NewSourceHub(mr.DFS, mr.DFS.BlockSize())
	hub.SetObserver(o)
	qs := fleetQueries(cfg.Reducers)
	if err := hub.Share("wcc", "wcc", qs[0].Sources[0].Spec, 0); err != nil {
		return nil, err
	}
	sys := &system{
		ingestLayer: "core.SourceHub.Ingest",
		mr:          mr,
		ctrl:        ctrl,
		idx:         reuse.NewIndex(0),
		acct:        account.New(),
		lin:         lineage.New(0),
		obs:         o,
	}
	mon := health.NewMonitor(health.DefaultConfig())
	for _, q := range qs {
		eng, err := core.NewEngine(core.Config{
			MR: mr, Query: q, Controller: ctrl, Hub: hub,
			Reuse: sys.idx, Account: sys.acct, Lineage: sys.lin, Health: mon,
			CacheDiskLimit: fleetCacheLimit,
		})
		if err != nil {
			return nil, err
		}
		closeAt, err := closeOf(q)
		if err != nil {
			return nil, err
		}
		rn := &runner{name: q.Name, eng: eng, close: closeAt}
		if withOracle {
			if rn.ora, err = oracle.New(eng); err != nil {
				return nil, err
			}
		}
		sys.runners = append(sys.runners, rn)
	}
	sys.ingest = func(_ int, recs []records.Record) error {
		for _, rn := range sys.runners {
			if rn.ora != nil {
				rn.ora.Observe(0, recs)
			}
		}
		return hub.Ingest("wcc", recs)
	}
	return sys, nil
}

// Self-checks. Each returns an error naming the property that failed.

func checkPaneReuse(r *roundStats) error {
	if got := ratio(r.reusedPanes, r.newPanes+r.reusedPanes); got < 0.8 {
		return fmt.Errorf("agg-incremental: warm pane reuse ratio %.3f < 0.8", got)
	}
	return nil
}

func checkNoCacheReads(r *roundStats) error {
	if r.mr.BytesCacheRead != 0 {
		return fmt.Errorf("agg-recompute: %d cache bytes read, want 0", r.mr.BytesCacheRead)
	}
	return nil
}

func checkPairReuse(r *roundStats) error {
	if r.reusedPairs == 0 {
		return fmt.Errorf("join-incremental: no pane pair was reused")
	}
	return nil
}

func checkFleet(r *roundStats) error {
	switch {
	case r.siblingMapTasks != 0:
		return fmt.Errorf("fleet-shared: identical sibling ran %d map tasks in warm windows, want 0", r.siblingMapTasks)
	case r.reuse.ExactHits == 0:
		return fmt.Errorf("fleet-shared: no exact reuse hit")
	case r.reuse.SubsumHits == 0:
		return fmt.Errorf("fleet-shared: no subsumed reuse hit")
	case r.evictions == 0:
		return fmt.Errorf("fleet-shared: no cache eviction fired")
	case r.conservationErr != nil:
		return fmt.Errorf("fleet-shared: %w", r.conservationErr)
	}
	return nil
}

func ratio[T int | int64](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
