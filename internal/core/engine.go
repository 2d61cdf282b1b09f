package core

import (
	"fmt"
	"log/slog"
	"strings"
	"sync"

	"redoop/internal/account"
	"redoop/internal/colfmt"
	"redoop/internal/health"
	"redoop/internal/lineage"
	"redoop/internal/mapreduce"
	"redoop/internal/obs"
	"redoop/internal/obs/eventlog"
	"redoop/internal/parallel"
	"redoop/internal/records"
	"redoop/internal/reuse"
	"redoop/internal/simtime"
	"redoop/internal/window"
)

// Config assembles a Redoop engine for one recurring query.
type Config struct {
	// MR is the underlying MapReduce runtime (required).
	MR *mapreduce.Engine
	// Query is the recurring query to execute (required).
	Query *Query
	// Controller may be shared between engines so caches and purge
	// masks span queries; nil creates a private controller.
	Controller *Controller
	// DataDir is the DFS directory pane files live under; default
	// "/redoop/<query name>".
	DataDir string
	// Adaptive enables the §3.3 adaptive input partitioning and
	// proactive execution. Non-adaptive Redoop still caches and
	// schedules window-aware; it just never subdivides panes or starts
	// early.
	Adaptive bool
	// Analyzer overrides the default analyzer (block size taken from
	// the DFS, default adaptation thresholds).
	Analyzer *Analyzer
	// DisableCacheReuse is an ablation knob: the engine still
	// partitions into panes and runs pane-granular tasks, but never
	// reuses a cache from an earlier recurrence — isolating how much
	// of Redoop's win is the caching itself versus the pane-shaped
	// execution.
	DisableCacheReuse bool
	// CacheObliviousPlacement is an ablation knob: cache-fed tasks
	// are placed on the earliest-available node regardless of where
	// their caches live, disabling the C_task term of Equation 4.
	CacheObliviousPlacement bool
	// Logger receives the engine's operational events (recurrence
	// summaries, cache recoveries, adaptive re-planning) at
	// Debug/Info levels. Nil disables logging. The logger is also
	// propagated to the scheduler and cache controller for their
	// placement and purge Debug events.
	Logger *slog.Logger
	// Obs receives the engine's metrics and trace spans (recurrence
	// spans, cache hit/miss counters, Equation 4 placement outcomes).
	// Nil falls back to MR.Obs so one observer set on the MapReduce
	// runtime covers the whole stack; if both are nil, instrumentation
	// is disabled at ~zero cost.
	Obs *obs.Observer
	// Hub optionally provides shared sources: a source whose CacheKey
	// names a source declared on the hub is packed once hub-side and
	// ingested through the hub rather than through this engine.
	Hub *SourceHub
	// Health may be shared between engines so one monitor judges every
	// query; nil creates a private monitor with default thresholds.
	// The engine registers its query at construction (deadline = the
	// slide for time-based windows) and reports every recurrence.
	Health *health.Monitor
	// Account optionally attaches a cost ledger, usually shared between
	// engines so per-query costs land in one place. The engine registers
	// its query (and tenant) at construction, hooks every slot, cache
	// and shuffle charge, and claims its DFS data directory so the DFS
	// attributes read/write/replication bytes to it. Nil disables
	// accounting at ~zero cost.
	Account *account.Ledger
	// Lineage optionally attaches a provenance store, usually shared
	// between engines so one store holds every query's derivation DAG.
	// The engine records, at its serial commit points, a derivation node
	// for every pane cache and emitted window — input batches down to
	// record-offset ranges, the plan fingerprint, cache copy history,
	// and downstream consumers — and propagates the store to the
	// MapReduce runtime (task attempts) and DFS (replica history). Nil
	// disables provenance at ~zero cost.
	Lineage *lineage.Store
	// Reuse optionally attaches a cross-query pane reuse index, shared
	// between engines over the same controller. Eligible engines
	// (single-source aggregations over a CacheKey-shared stream with a
	// Merge) publish every freshly built pane reduce-output into it and
	// probe it — by operator fingerprint and pane range — before
	// computing a pane, copying an exact hit or composing a
	// finer-grained subsumption hit with Merge instead of re-running
	// map+shuffle+reduce. Nil disables cross-query reuse at ~zero cost.
	Reuse *reuse.Index
	// CacheDiskLimit bounds each node's local bytes (panes + caches).
	// When a recurrence's periodic purge cannot bring a node under the
	// limit with expired entries alone, the engine evicts unexpired
	// reduce-input caches of single-source queries — the only caches
	// rebuildable from retained pane files without violating the
	// published window — ranked by ascending benefit density
	// (recompute·(1+hits)/bytes) from the cost ledger. 0 disables the
	// limit and keeps pure-expiry purging only.
	CacheDiskLimit int64
}

// RecurrenceResult reports one execution of the recurring query.
type RecurrenceResult struct {
	Recurrence int
	// WindowLo and WindowHi are the window's inclusive pane range.
	WindowLo, WindowHi window.PaneID
	// Output is the window's final result, deterministic order
	// (partitions ascending, keys ascending within each merge group).
	Output []records.Pair
	// Stats aggregates all MapReduce work of this recurrence.
	Stats mapreduce.Stats
	// TriggerAt is the window close instant the recurrence was due.
	TriggerAt simtime.Time
	// CompletedAt is when the final output was ready.
	CompletedAt simtime.Time
	// ResponseTime is CompletedAt - TriggerAt: the per-window
	// processing time the paper's Figures 6–9 plot.
	ResponseTime simtime.Duration
	// NewPanes / ReusedPanes count pane-level work per source
	// combined; NewPairs / ReusedPairs count pane pairs for joins.
	NewPanes, ReusedPanes int
	NewPairs, ReusedPairs int
	// CacheRecoveries counts caches found lost and rebuilt (§5).
	CacheRecoveries int
	// Proactive reports whether this recurrence ran in proactive mode.
	Proactive bool
	// SubPanes is the partition plan's subdivision factor in effect.
	SubPanes int
}

// Engine executes one recurring query incrementally over the MapReduce
// runtime: panes are mapped and shuffled once, reduce-side caches are
// reused across overlapping windows, and the cache-aware scheduler
// keeps work near its caches (paper §2.3).
// paneSource is one source's pane-file supplier: a query-private
// Packer or a shared view from a SourceHub.
type paneSource interface {
	Ingest([]records.Record) error
	FlushThrough(unit int64) error
	PaneInputs(p window.PaneID) ([]PaneInput, bool)
	PaneBytes(p window.PaneID) int64
	DropPaneFiles(p window.PaneID) error
	Plan() PartitionPlan
	SetPlan(PartitionPlan) error
	// NewestUnit is the ingestion watermark: the exclusive upper unit
	// bound of the newest pane holding data (0 before any ingestion).
	NewestUnit() int64
}

type Engine struct {
	// mu guards the engine state a concurrent debug server reads —
	// plans, proactive, next, curTrigger, expiredBound and the forecast
	// pair. RunNext is the sole writer; it takes the lock only around
	// its writes, readers take it around every access.
	mu       sync.Mutex
	mr       *mapreduce.Engine
	query    *Query
	ctrl     *Controller
	sched    *Scheduler
	analyzer *Analyzer
	profiler *Profiler
	srcs     []paneSource
	packers  []*Packer // private packers; nil entries for shared sources
	shared   []bool
	plans    []PartitionPlan
	managers []*CacheManager
	matrix   *StatusMatrix

	frames []window.Frame // per-source window alignment

	log *slog.Logger
	obs *obs.Observer

	// healthMon judges the query's SLO compliance; healthTrk is this
	// query's registration on it. Always non-nil after NewEngine.
	healthMon *health.Monitor
	healthTrk *health.Tracker

	// acct is the (possibly shared, possibly nil) cost ledger;
	// acctName is this query's account on it — the query name, or a
	// suffixed variant when several engines run same-named queries.
	acct     *account.Ledger
	acctName string

	// lin is the (possibly shared, possibly nil) provenance store;
	// planFP is the query's canonical plan fingerprint, computed even
	// when lineage is disabled so callers can always read it; opFP the
	// geometry-independent operator fingerprint the reuse index keys on.
	lin    *lineage.Store
	planFP string
	opFP   string

	// reuseIdx is the (possibly shared, possibly nil) cross-query
	// reuse index.
	reuseIdx *reuse.Index

	// lastForecast is the profiler's previous next-recurrence forecast,
	// compared against the realized response time to expose the Holt
	// model's error as a metric.
	lastForecast simtime.Duration
	haveForecast bool

	// curTrigger is the trigger instant of the recurrence in flight —
	// the timestamp stamped on cache lookup/registration events, whose
	// call sites have no better notion of "now".
	curTrigger simtime.Time

	// cacheLimit mirrors Config.CacheDiskLimit; evictable tracks the
	// pids this engine registered that cost-based replacement may
	// target (unexpired agg reduce-input caches); evictLog records
	// every replacement decision in order, for determinism audits.
	cacheLimit int64
	evictable  map[string]bool
	evictLog   []string

	qIdx      int
	adaptive  bool
	proactive bool
	noReuse   bool
	// brokenRecovery disables the §5 cache-loss recovery path (see
	// BreakRecoveryForTest); never set outside oracle self-validation.
	brokenRecovery bool
	next           int // next recurrence to run

	expiredBound []window.PaneID // per source: panes below are retired
}

// NewEngine validates the query and assembles all Redoop components.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.MR == nil {
		return nil, fmt.Errorf("core: engine needs a MapReduce runtime")
	}
	if cfg.Query == nil {
		return nil, fmt.Errorf("core: engine needs a query")
	}
	if err := cfg.Query.Validate(); err != nil {
		return nil, err
	}
	q := cfg.Query
	ctrl := cfg.Controller
	if ctrl == nil {
		ctrl = NewController()
	}
	analyzer := cfg.Analyzer
	if analyzer == nil {
		var err error
		analyzer, err = NewAnalyzer(cfg.MR.DFS.BlockSize())
		if err != nil {
			return nil, err
		}
	}
	profiler, err := NewProfiler(DefaultAlpha, DefaultBeta)
	if err != nil {
		return nil, err
	}
	frames, err := q.Frames()
	if err != nil {
		return nil, err
	}
	matrix, err := NewStatusMatrixFrames(frames)
	if err != nil {
		return nil, err
	}
	dataDir := cfg.DataDir
	if dataDir == "" {
		dataDir = "/redoop/" + q.Name
	}
	e := &Engine{
		mr:       cfg.MR,
		query:    q,
		ctrl:     ctrl,
		sched:    NewScheduler(cfg.MR.Cluster, cfg.MR.Cost),
		analyzer: analyzer,
		profiler: profiler,
		matrix:   matrix,
		frames:   frames,
		adaptive: cfg.Adaptive,
		noReuse:  cfg.DisableCacheReuse,

		cacheLimit: cfg.CacheDiskLimit,
		evictable:  make(map[string]bool),
	}
	// Retirement scans start at pane zero: a source whose window is
	// smaller than the query's largest (positive frame offset) may
	// receive data before its first window starts; those panes are
	// vacuously exhausted and retire on the first pass.
	e.expiredBound = make([]window.PaneID, len(q.Sources))
	e.sched.CacheOblivious = cfg.CacheObliviousPlacement
	e.log = cfg.Logger
	e.obs = cfg.Obs
	if e.obs == nil {
		e.obs = cfg.MR.Obs
	}
	if cfg.MR.Obs == nil {
		// One observer covers the whole stack: map/reduce task metrics
		// flow to the same registry as the engine's recurrence series.
		cfg.MR.Obs = e.obs
	}
	e.sched.SetObserver(e.obs)
	e.sched.SetLogger(cfg.Logger)
	e.sched.SetQuery(q.Name)
	// A shared controller keeps whatever observer/logger it already has;
	// an engine only fills in a missing one so a later un-instrumented
	// sibling cannot detach an earlier sibling's instrumentation.
	if e.obs != nil {
		ctrl.SetObserver(e.obs)
	}
	if cfg.Logger != nil {
		ctrl.SetLogger(cfg.Logger)
	}
	// The SLO monitor follows the controller's sharing rules: a shared
	// monitor keeps whatever observer it already has; an engine only
	// fills in a missing one. The per-recurrence deadline is the slide
	// — the instant the next window is due — for time-based windows;
	// count-based windows carry no deadline.
	mon := cfg.Health
	if mon == nil {
		mon = health.NewMonitor(health.DefaultConfig())
	}
	if mon.Observer() == nil && e.obs != nil {
		mon.SetObserver(e.obs)
	}
	e.healthMon = mon
	var deadline simtime.Duration
	if q.Spec().Kind == window.TimeBased {
		deadline = simtime.Duration(q.Spec().Slide)
	}
	e.healthTrk = mon.Register(q.Name, deadline)
	// The cost ledger follows the same sharing rules: fill in a missing
	// observer, never detach one. The engine claims its DFS data
	// directory so reads/writes/replication under it are attributed to
	// this query, and propagates the ledger to the MapReduce runtime so
	// task execution charges land on the same accounts.
	e.acct = cfg.Account
	e.acctName = e.acct.Register(q.Name, q.TenantID)
	if e.acct != nil {
		if e.acct.Observer() == nil && e.obs != nil {
			e.acct.SetObserver(e.obs)
		}
		if cfg.MR.Account == nil {
			cfg.MR.Account = e.acct
		}
		cfg.MR.DFS.SetAccount(e.acct)
		cfg.MR.DFS.AttributePrefix(dataDir+"/", e.acctName)
	}
	// The provenance store follows the same sharing rules: propagate it
	// to the MapReduce runtime (task-attempt provenance) and the DFS
	// (pane-file replica history, bounded to this query's data
	// directory). The plan fingerprint is computed unconditionally — it
	// is the reuse seam — but only recorded when a store is attached.
	plan := lineagePlan(q, frames)
	e.planFP = lineage.Fingerprint(plan)
	e.opFP = lineage.OpFingerprint(plan)
	e.lin = cfg.Lineage
	if e.lin != nil {
		e.lin.RecordPlan(e.planFP, plan)
		if cfg.MR.Lineage == nil {
			cfg.MR.Lineage = e.lin
		}
		cfg.MR.DFS.SetLineage(e.lin)
		cfg.MR.DFS.LineagePrefix(dataDir + "/")
	}
	// The reuse index follows the controller's sharing rules: engines
	// sharing one controller share one index, and each install of the
	// purge hook / ROI signal replaces an equivalent closure. The hook
	// keeps the index honest — a purged or dropped signature can never
	// linger as an advertised reuse source.
	if cfg.Reuse != nil {
		e.reuseIdx = cfg.Reuse
		idx := cfg.Reuse
		ctrl.SetPurgeHook(func(pid string, typ CacheType) {
			idx.DropPID(pid, int(typ))
		})
		if e.acct != nil {
			ledger := e.acct
			idx.SetROI(func(query string) float64 { return ledger.CacheROI(query) })
		}
	}
	matrix.SetObserver(e.obs, q.Name)
	e.qIdx = ctrl.RegisterQuery(q.Name)
	for i, src := range q.Sources {
		if src.CacheKey != "" {
			ctrl.JoinGroup(q.rinScope(i), e.qIdx)
		}
	}
	for _, n := range cfg.MR.Cluster.Nodes() {
		reg := ctrl.Registry(n.ID)
		if reg == nil {
			reg = NewRegistry(n)
			ctrl.AttachRegistry(reg)
		}
		m := NewCacheManager(reg)
		m.DiskLimit = cfg.CacheDiskLimit
		e.managers = append(e.managers, m)
	}
	for i, src := range q.Sources {
		if cfg.Hub != nil && src.CacheKey != "" && cfg.Hub.Has(src.CacheKey) {
			view, err := cfg.Hub.attach(src.CacheKey, frames[i].Pane)
			if err != nil {
				return nil, err
			}
			e.srcs = append(e.srcs, view)
			e.packers = append(e.packers, nil)
			e.shared = append(e.shared, true)
			e.plans = append(e.plans, view.Plan())
			continue
		}
		rate := src.RateBytesPerUnit
		plan, err := analyzer.PlanFrame(frames[i], rate)
		if err != nil {
			return nil, err
		}
		if rate == 0 {
			// Unknown rate: Algorithm 1 cannot size files, so default
			// to one pane per file until the profiler learns better.
			plan.PanesPerFile = 1
		}
		pk, err := NewPacker(cfg.MR.DFS, src.Name, fmt.Sprintf("%s/%s", dataDir, src.Name), frames[i], plan)
		if err != nil {
			return nil, err
		}
		pk.SetObserver(e.obs, q.Name)
		e.plans = append(e.plans, plan)
		e.packers = append(e.packers, pk)
		e.srcs = append(e.srcs, pk)
		e.shared = append(e.shared, false)
	}
	return e, nil
}

// MustNewEngine is NewEngine that panics on error.
func MustNewEngine(cfg Config) *Engine {
	e, err := NewEngine(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// Query returns the engine's query.
func (e *Engine) Query() *Query { return e.query }

// MR returns the underlying MapReduce runtime.
func (e *Engine) MR() *mapreduce.Engine { return e.mr }

// BreakRecoveryForTest sabotages the §5 cache-loss recovery path: a
// lost cache is treated as a hit (no ready 2→1 rollback, no dependent
// task re-insertion) and its missing bytes read back empty. It exists
// solely to prove the differential oracle detects a broken recovery
// path; production code must never call it.
func (e *Engine) BreakRecoveryForTest() { e.brokenRecovery = true }

// ForceProactive overrides the adaptive decision, pinning the engine to
// proactive mode with the given sub-pane factor (1 restores whole
// panes and leaves proactive mode). Operators use it to bypass the
// profiler when a load spike is known ahead of time; subsequent
// adaptive re-planning may override it again.
func (e *Engine) ForceProactive(subPanes int) error {
	if subPanes < 1 {
		return fmt.Errorf("core: sub-pane factor must be >= 1, got %d", subPanes)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range e.plans {
		if e.shared[i] {
			continue // shared sources keep their declared granularity
		}
		plan := e.plans[i]
		plan.SubPanes = subPanes
		if err := e.srcs[i].SetPlan(plan); err != nil {
			return err
		}
		e.plans[i] = plan
	}
	e.proactive = subPanes > 1
	return nil
}

// Controller returns the (possibly shared) cache controller.
func (e *Engine) Controller() *Controller { return e.ctrl }

// Account returns the engine's cost ledger (nil when accounting is
// disabled) and AccountName the account its costs are attributed to.
func (e *Engine) Account() *account.Ledger { return e.acct }

// AccountName returns the ledger account name of this engine's query.
func (e *Engine) AccountName() string { return e.acctName }

// Lineage returns the engine's provenance store (nil when lineage is
// disabled).
func (e *Engine) Lineage() *lineage.Store { return e.lin }

// PlanFingerprint returns the query's canonical plan fingerprint — the
// hex SHA-256 of its operator lineage, stable across -workers settings
// and recurrences. It is always available, even without a lineage
// store.
func (e *Engine) PlanFingerprint() string { return e.planFP }

// OpFingerprint returns the query's geometry-independent operator
// fingerprint — the reuse index's matching key. Always available, even
// without a reuse index.
func (e *Engine) OpFingerprint() string { return e.opFP }

// ReuseIndex returns the engine's cross-query reuse index (nil when
// reuse is disabled).
func (e *Engine) ReuseIndex() *reuse.Index { return e.reuseIdx }

// Scheduler returns the query's cache-aware scheduler.
func (e *Engine) Scheduler() *Scheduler { return e.sched }

// Profiler returns the execution profiler.
func (e *Engine) Profiler() *Profiler { return e.profiler }

// Matrix returns the query's cache status matrix.
func (e *Engine) Matrix() *StatusMatrix { return e.matrix }

// Packer returns source src's query-private dynamic data packer, or
// nil when the source is shared through a SourceHub.
func (e *Engine) Packer(src int) *Packer { return e.packers[src] }

// PaneInputs returns pane p's physical segments for source src,
// whether private or shared.
func (e *Engine) PaneInputs(src int, p window.PaneID) ([]PaneInput, bool) {
	return e.srcs[src].PaneInputs(p)
}

// Plans returns the current partition plans per source.
func (e *Engine) Plans() []PartitionPlan {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]PartitionPlan(nil), e.plans...)
}

// Proactive reports whether the next recurrence will run proactively.
func (e *Engine) Proactive() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.proactive
}

// NextRecurrence returns the index of the next recurrence RunNext will
// execute.
func (e *Engine) NextRecurrence() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.next
}

// Ingest feeds a batch of records into source src's packer. Per the
// data model (§2.1), batches arrive in timestamp order with
// non-overlapping ranges.
func (e *Engine) Ingest(src int, recs []records.Record) error {
	if src < 0 || src >= len(e.srcs) {
		return fmt.Errorf("core: query %q has no source %d", e.query.Name, src)
	}
	if e.lin != nil && len(recs) > 0 {
		// Record the batch's provenance before delivery: which
		// contiguous record-index runs land in which pane. Ingest calls
		// are serial per the data model, so the per-source batch
		// sequence is deterministic.
		frame := e.frames[src]
		var runs []lineage.PaneRange
		start, cur := 0, frame.PaneOf(recs[0].Ts)
		for i := 1; i < len(recs); i++ {
			if p := frame.PaneOf(recs[i].Ts); p != cur {
				runs = append(runs, lineage.PaneRange{Pane: int64(cur), R: lineage.Range{Lo: start, Hi: i}})
				start, cur = i, p
			}
		}
		runs = append(runs, lineage.PaneRange{Pane: int64(cur), R: lineage.Range{Lo: start, Hi: len(recs)}})
		e.lin.RecordBatch(e.acctName, e.query.Sources[src].Name, len(recs), runs)
	}
	return e.srcs[src].Ingest(recs)
}

// timeOfUnit converts a window-unit offset to a virtual instant:
// identity for time-based windows; count-based windows have no
// intrinsic arrival time, so they trigger immediately.
func (e *Engine) timeOfUnit(u int64) simtime.Time {
	if e.query.Spec().Kind == window.TimeBased {
		return simtime.Time(u)
	}
	return 0
}

// RunNext executes the next recurrence of the query and advances the
// engine. Recurrences must run in order — windows slide monotonically.
// When several engines share one MapReduce runtime, their recurrences
// must additionally be driven in global window-close order: the slot
// timelines advance monotonically, so running a later-closing window
// first would push an earlier one's tasks behind it.
func (e *Engine) RunNext() (*RecurrenceResult, error) {
	r := e.next
	spec := e.query.Spec()
	closeUnit := e.frames[0].WindowClose(r) // shared trigger of all sources
	for _, src := range e.srcs {
		if err := src.FlushThrough(closeUnit); err != nil {
			return nil, err
		}
	}
	trigger := e.timeOfUnit(closeUnit)
	e.mu.Lock()
	e.curTrigger = trigger
	e.mu.Unlock()
	e.sched.SetRecurrence(r)
	// The forecast made for THIS recurrence at the end of the previous
	// one, captured before the profiler moves on — paired with the
	// realized response time in the recurrence.finish event so forecast
	// error is auditable per recurrence.
	prevForecast := int64(-1)
	if e.haveForecast {
		prevForecast = int64(e.lastForecast)
	}
	winLo, winHi := e.frames[0].WindowRange(r)
	e.obs.Emit(trigger, eventlog.RecurrenceStart, e.query.Name, eventlog.RecurrenceStartData{
		Recurrence: r, WindowLo: int64(winLo), WindowHi: int64(winHi),
	})
	// Reserve the recurrence's root span up front so every task span of
	// this recurrence can parent-link to it; the root itself is recorded
	// at the end once CompletedAt is known.
	root := e.obs.ReserveSpanID()
	e.mr.SpanParent = root

	var res *RecurrenceResult
	var err error
	if len(e.query.Sources) == 1 {
		res, err = e.runAggregation(r, trigger)
	} else {
		res, err = e.runJoin(r, trigger)
	}
	if err != nil {
		return nil, err
	}
	res.Proactive = e.proactive
	res.SubPanes = e.plans[0].SubPanes
	qname := e.query.Name
	mode := "reactive"
	if res.Proactive {
		mode = "proactive"
	}
	e.obs.Counter("redoop_recurrences_total", obs.L("query", qname), obs.L("mode", mode)).Inc()
	e.obs.Histogram("redoop_recurrence_seconds", obs.L("query", qname)).Observe(res.ResponseTime.Seconds())
	e.obs.Counter("redoop_panes_total", obs.L("query", qname), obs.L("kind", "new")).Add(float64(res.NewPanes))
	e.obs.Counter("redoop_panes_total", obs.L("query", qname), obs.L("kind", "reused")).Add(float64(res.ReusedPanes))
	e.obs.Counter("redoop_pane_pairs_total", obs.L("query", qname), obs.L("kind", "new")).Add(float64(res.NewPairs))
	e.obs.Counter("redoop_pane_pairs_total", obs.L("query", qname), obs.L("kind", "reused")).Add(float64(res.ReusedPairs))
	e.obs.Counter("redoop_cache_recoveries_total", obs.L("query", qname)).Add(float64(res.CacheRecoveries))
	e.obs.Task(obs.TaskSpan{
		Track: obs.QueryTrack(qname), Cat: "recurrence",
		Name:  fmt.Sprintf("recurrence %d", r),
		Start: trigger, End: res.CompletedAt, Ready: trigger, ID: root,
		Args: []obs.Label{
			obs.L("mode", mode),
			obs.L("newPanes", fmt.Sprint(res.NewPanes)),
			obs.L("reusedPanes", fmt.Sprint(res.ReusedPanes))},
	})
	e.obs.Emit(res.CompletedAt, eventlog.RecurrenceFinish, qname, eventlog.RecurrenceFinishData{
		Recurrence:      r,
		ResponseNS:      int64(res.ResponseTime),
		ForecastNS:      prevForecast,
		NewPanes:        res.NewPanes,
		ReusedPanes:     res.ReusedPanes,
		NewPairs:        res.NewPairs,
		ReusedPairs:     res.ReusedPairs,
		CacheRecoveries: res.CacheRecoveries,
		Proactive:       res.Proactive,
		SubPanes:        res.SubPanes,
	})
	if e.log != nil {
		e.log.Info("recurrence complete",
			"query", e.query.Name, "recurrence", r,
			"response", res.ResponseTime,
			"newPanes", res.NewPanes, "reusedPanes", res.ReusedPanes,
			"newTuples", res.NewPairs, "reusedTuples", res.ReusedPairs,
			"recoveries", res.CacheRecoveries, "proactive", res.Proactive)
		if res.CacheRecoveries > 0 {
			e.log.Warn("caches lost and rebuilt",
				"query", e.query.Name, "recurrence", r, "count", res.CacheRecoveries)
		}
	}

	e.linRecordWindow(r, res)
	e.retireExpired(r, res.CompletedAt)
	purged := 0
	for _, m := range e.managers {
		purged += m.Tick()
	}
	e.obs.Counter("redoop_cache_purges_total").Add(float64(purged))
	if e.log != nil && purged > 0 {
		e.log.Debug("purged expired caches", "query", e.query.Name, "count", purged)
	}
	if evicted := e.evictOverCap(r, res.CompletedAt); evicted > 0 {
		e.obs.Counter("redoop_cache_evictions_total").Add(float64(evicted))
		if e.log != nil {
			e.log.Debug("evicted caches over disk limit", "query", e.query.Name, "count", evicted)
		}
	}
	// Move the ledger's accrual watermark to the recurrence's end so
	// open residencies accrue byte·seconds through the work just done.
	e.acct.Advance(res.CompletedAt)

	// Profile and adapt for the next recurrence (§3.3).
	var windowBytes int64
	for d, src := range e.srcs {
		lo, hi := e.frames[d].WindowRange(r)
		for p := lo; p <= hi; p++ {
			windowBytes += src.PaneBytes(p)
		}
	}
	// The first recurrence is a cold start (every pane processed from
	// scratch); its execution time does not predict steady-state
	// recurrences and would poison the Holt trend, so the profiler
	// starts observing from the second recurrence.
	if r > 0 {
		e.profiler.Observe(r, res.ResponseTime, windowBytes)
		if e.haveForecast {
			errSec := (e.lastForecast - res.ResponseTime).Seconds()
			if errSec < 0 {
				errSec = -errSec
			}
			e.obs.Histogram("redoop_forecast_error_seconds", obs.L("query", qname)).Observe(errSec)
		}
	}
	if e.profiler.Ready() {
		e.mu.Lock()
		e.lastForecast = e.profiler.Forecast(1)
		e.haveForecast = true
		e.mu.Unlock()
	}
	replanned := false
	if e.adaptive && e.profiler.Ready() && spec.Kind == window.TimeBased {
		deadline := simtime.Duration(spec.Slide)
		forecast := e.profiler.Forecast(1)
		for i := range e.plans {
			if e.shared[i] {
				continue // shared sources keep their declared granularity
			}
			plan, proactive := e.analyzer.Replan(e.plans[i], forecast, deadline)
			if plan.SubPanes != e.plans[i].SubPanes {
				if err := e.srcs[i].SetPlan(plan); err != nil {
					return nil, err
				}
				replanned = true
				e.obs.Counter("redoop_replans_total", obs.L("query", qname)).Inc()
				e.obs.Instant(obs.QueryTrack(qname), "adapt", "re-plan", res.CompletedAt,
					obs.L("source", fmt.Sprint(i)),
					obs.L("subPanes", fmt.Sprint(plan.SubPanes)),
					obs.L("proactive", fmt.Sprint(proactive)))
				e.obs.Emit(res.CompletedAt, eventlog.Replan, qname, eventlog.ReplanData{
					Recurrence: r,
					Source:     i,
					SubPanes:   plan.SubPanes,
					Proactive:  proactive,
					ForecastNS: int64(forecast),
					DeadlineNS: int64(deadline),
				})
				if e.log != nil {
					e.log.Info("adaptive re-plan",
						"query", e.query.Name, "source", i,
						"forecast", forecast, "deadline", deadline,
						"subPanes", plan.SubPanes, "proactive", proactive)
				}
				e.mu.Lock()
				e.plans[i] = plan
				e.mu.Unlock()
			}
			e.mu.Lock()
			e.proactive = proactive
			e.mu.Unlock()
		}
	}

	// Health is judged last, after the adaptive decision, so the
	// anomaly detector can cross-check whether the re-planner actually
	// reacted to what it saw.
	var newest int64
	for _, src := range e.srcs {
		if u := src.NewestUnit(); u > newest {
			newest = u
		}
	}
	e.healthTrk.Observe(health.Sample{
		Recurrence:       r,
		TriggerAt:        trigger,
		CompletedAt:      res.CompletedAt,
		Response:         res.ResponseTime,
		Forecast:         simtime.Duration(max(prevForecast, int64(0))),
		HaveForecast:     prevForecast >= 0,
		ReplanFired:      replanned,
		NewestPackedUnit: newest,
		CoveredUnit:      closeUnit,
		CacheByteSeconds: e.acct.ByteSeconds(e.acctName),
	})

	e.mu.Lock()
	e.next++
	e.mu.Unlock()
	return res, nil
}

// Health returns the engine's SLO monitor (shared or private; never
// nil after NewEngine) — the source of /debug/health snapshots.
func (e *Engine) Health() *health.Monitor { return e.healthMon }

// HealthStatus returns this query's current health snapshot.
func (e *Engine) HealthStatus() health.QueryStatus { return e.healthTrk.Status() }

// cacheRef locates one registered cache.
type cacheRef struct {
	pid     string
	typ     CacheType
	node    int
	readyAt simtime.Time
	bytes   int64
	// span is the task span that produced the cached bytes, when it was
	// produced within the current recurrence; zero for caches carried
	// over from an earlier recurrence (a cache hit short-circuits the
	// dependency walk at the trigger).
	span obs.SpanID
}

// loc converts the reference into the scheduler's cost term.
func (c cacheRef) loc() CacheLoc { return CacheLoc{Node: c.node, Bytes: c.bytes} }

// cacheMeta is the provenance recorded with a cache registration: the
// task span that produced the bytes, and the recompute cost a future
// hit on this entry avoids — actual task durations where the cold run
// measured them, iocost-modeled otherwise. The profiler's cache-benefit
// ledger subtracts load costs from it.
type cacheMeta struct {
	span      obs.SpanID
	recompute simtime.Duration
	// lin, when non-nil, carries the registration's lineage context: the
	// derivation node recorded for the cached bytes at this serial
	// commit point.
	lin *linMeta
}

// linMeta is the lineage context of one cache registration: what kind
// of derivation the bytes are, which pane/partition they belong to, and
// which raw batches / upstream derivations produced them.
type linMeta struct {
	kind    string
	pane    int64
	part    int
	job     string
	batches []lineage.BatchRef
	inputs  []lineage.InputRef
}

// linBatches returns the retained raw-batch claims on pane p of source
// src (nil when lineage is disabled).
func (e *Engine) linBatches(src int, p window.PaneID) []lineage.BatchRef {
	if e.lin == nil {
		return nil
	}
	return e.lin.BatchesForPane(e.acctName, e.query.Sources[src].Name, int64(p))
}

// linInput references the derivation of cache pid/typ as an upstream
// input, carrying its insertion seq so closure checks can tell a
// legitimately evicted input from a bookkeeping hole.
func (e *Engine) linInput(pid string, typ CacheType) lineage.InputRef {
	id := lineage.DerivID(pid, int(typ))
	seq, _ := e.lin.Seq(id)
	return lineage.InputRef{ID: id, Seq: seq}
}

// registerCache persists bytes as a cache on a node and registers its
// signature, claiming it for this query.
func (e *Engine) registerCache(pid string, typ CacheType, node int, readyAt simtime.Time, data []byte, meta cacheMeta) cacheRef {
	return e.registerCacheFor(pid, typ, node, readyAt, data, []int{e.qIdx}, meta)
}

// registerCacheFor is registerCache with an explicit consumer set —
// reduce-input caches of shared sources are claimed by every query in
// the sharing group so one query's expiry cannot purge a cache a
// sibling still needs.
func (e *Engine) registerCacheFor(pid string, typ CacheType, node int, readyAt simtime.Time, data []byte, usedBy []int, meta cacheMeta) cacheRef {
	// Re-homing: when a rebuilt cache lands on a different node (one
	// lost partition forces a whole-tuple recompute, but sibling
	// partitions may still be resident elsewhere), expire the old
	// node's copy — the signature moves with the rebuild, so bytes
	// left behind would otherwise be orphaned forever: unexpired,
	// undiscoverable, and invisible to every future purge notice.
	prevNode, hadPrev := -1, false
	if old, ok := e.ctrl.Lookup(pid, typ); ok {
		prevNode, hadPrev = old.NID, true
		if old.NID != node {
			if oldReg := e.ctrl.Registry(old.NID); oldReg != nil {
				oldReg.MarkExpired(pid, typ)
			}
		}
	}
	reg := e.ctrl.Registry(node)
	reg.Add(pid, typ, data)
	e.ctrl.Register(pid, typ, node, CacheAvailable, readyAt, int64(len(data)), usedBy)
	// Only single-source reduce-input caches are replacement
	// candidates: the oracle pins the window's routs (and a join's
	// rins and tuple routs) as resident after every recurrence, while
	// an agg rin is rebuildable from its retained pane files via
	// map+shuffle, exactly like a §5 cache loss.
	if typ == ReduceInput && len(e.query.Sources) == 1 {
		e.evictable[pid] = true
	}
	e.obs.Emit(readyAt, eventlog.CacheRegister, e.query.Name, eventlog.CacheData{
		PID: pid, CacheType: typ.String(), Node: node,
		Bytes: int64(len(data)), Recurrence: e.NextRecurrence(),
		RecomputeNS: int64(meta.recompute),
	})
	if e.lin != nil && meta.lin != nil {
		m := meta.lin
		id := lineage.DerivID(pid, int(typ))
		rebuilt, cause := e.lin.RecordDerivation(lineage.Derivation{
			ID: id, Kind: m.kind, Query: e.acctName, Fingerprint: e.planFP,
			Recurrence: e.NextRecurrence(), Pane: m.pane, Part: m.part,
			Bytes: int64(len(data)), SHA: lineage.SHA(data),
			CostNS: int64(meta.recompute), Job: m.job,
			Batches: m.batches, Inputs: m.inputs,
		})
		ev := lineage.CopyEvent{Kind: "register", Node: node, AtNS: int64(readyAt)}
		if hadPrev && prevNode != node {
			ev = lineage.CopyEvent{Kind: "rehome", Node: node, From: prevNode, AtNS: int64(readyAt)}
			e.obs.Emit(readyAt, eventlog.LineageCopyRehome, e.query.Name, eventlog.LineageRehomeData{
				ID: id, From: prevNode, To: node,
			})
		}
		e.lin.AddCopy(id, ev)
		if rebuilt {
			e.obs.Emit(readyAt, eventlog.LineageRebuild, e.query.Name, eventlog.LineageRebuildData{
				ID: id, Kind: m.kind, Cause: cause,
			})
		} else {
			e.obs.Emit(readyAt, eventlog.LineageDerived, e.query.Name, eventlog.LineageDerivedData{
				ID: id, Kind: m.kind, Pane: m.pane, Part: m.part,
				Bytes: int64(len(data)), Fingerprint: e.planFP,
			})
		}
	}
	// Open the ledger's residency interval (a refresh or re-homing of
	// the same pid closes the old interval ledger-side, so byte·seconds
	// never double-count).
	e.acct.CacheRegistered(e.acctName, pid, int(typ), int64(len(data)), readyAt, meta.recompute)
	return cacheRef{pid: pid, typ: typ, node: node, readyAt: readyAt, bytes: int64(len(data)), span: meta.span}
}

// rinUsers returns the consumer set of source src's reduce-input
// caches: the full sharing group for shared sources, just this query
// otherwise.
func (e *Engine) rinUsers(src int) []int {
	if e.query.Sources[src].CacheKey == "" {
		return []int{e.qIdx}
	}
	if g := e.ctrl.Group(e.query.rinScope(src)); len(g) > 0 {
		return g
	}
	return []int{e.qIdx}
}

// lookupCache returns the cache's reference if its signature says it is
// cache-available AND its bytes are really present on the node (a lost
// cache is the failure Figure 9 injects). On loss it rolls the
// controller back to HDFS-available and removes any scheduled tasks
// that depended on the cache, per §5.
func (e *Engine) lookupCache(pid string, typ CacheType) (cacheRef, bool) {
	sig, ok := e.ctrl.Lookup(pid, typ)
	if !ok || sig.Ready != CacheAvailable {
		e.obs.Counter("redoop_cache_lookups_total",
			obs.L("result", "miss"), obs.L("type", typ.String())).Inc()
		e.obs.Emit(e.curTrigger, eventlog.CacheMiss, e.query.Name, eventlog.CacheData{
			PID: pid, CacheType: typ.String(), Node: -1, Recurrence: e.NextRecurrence(),
		})
		return cacheRef{}, false
	}
	reg := e.ctrl.Registry(sig.NID)
	if reg == nil || !reg.Has(pid, typ) {
		if e.brokenRecovery {
			// Deliberately wrong: trust the stale CacheAvailable bit and
			// skip the §5 rollback. Exists only so tests can prove the
			// differential oracle catches a recovery-path regression.
			e.ctrl.ClaimUser(pid, typ, e.qIdx)
			return cacheRef{pid: pid, typ: typ, node: sig.NID, readyAt: sig.ReadyAt, bytes: sig.Bytes}, true
		}
		// Cache loss: roll back the ready bit and pull dependent
		// tasks; the caller re-inserts the rebuild into the map list.
		e.obs.Counter("redoop_cache_lookups_total",
			obs.L("result", "lost"), obs.L("type", typ.String())).Inc()
		e.obs.Instant(obs.NodeTrack(sig.NID), "failure", "cache lost "+pid,
			sig.ReadyAt, obs.L("type", typ.String()))
		e.obs.Emit(e.curTrigger, eventlog.CacheLost, e.query.Name, eventlog.CacheData{
			PID: pid, CacheType: typ.String(), Node: sig.NID,
			Bytes: sig.Bytes, Recurrence: e.NextRecurrence(),
		})
		e.ctrl.SetReady(pid, typ, HDFSAvailable, sig.ReadyAt, sig.NID)
		e.sched.ReduceTasks.RemoveMatching(func(id string) bool {
			return containsPID(id, pid)
		})
		// The bytes stopped being resident when chaos destroyed them,
		// but §5 discovers the loss lazily — here, at the trigger. The
		// ledger closes the residency at discovery time, the earliest
		// instant the runtime can know about it. The lineage store
		// matches the loss against the most recent recorded fault so the
		// rebuild that follows can name its cause.
		e.acct.CacheExpired(pid, int(typ), e.curTrigger)
		e.lin.MarkLost(lineage.DerivID(pid, int(typ)), sig.NID, int64(e.curTrigger))
		// The §5 rollback is not a signature removal, so the purge hook
		// never fires for it — retract any reuse advertisement of the
		// lost bytes explicitly.
		e.reuseIdx.DropPID(pid, int(typ))
		return cacheRef{}, false
	}
	e.obs.Counter("redoop_cache_lookups_total",
		obs.L("result", "hit"), obs.L("type", typ.String())).Inc()
	e.obs.Emit(e.curTrigger, eventlog.CacheHit, e.query.Name, eventlog.CacheData{
		PID: pid, CacheType: typ.String(), Node: sig.NID,
		Bytes: sig.Bytes, Recurrence: e.NextRecurrence(),
	})
	e.ctrl.ClaimUser(pid, typ, e.qIdx)
	e.acct.CacheHit(e.acctName, pid, int(typ), e.curTrigger)
	e.lin.AddCopy(lineage.DerivID(pid, int(typ)),
		lineage.CopyEvent{Kind: "hit", Node: sig.NID, AtNS: int64(e.curTrigger)})
	return cacheRef{pid: pid, typ: typ, node: sig.NID, readyAt: sig.ReadyAt, bytes: sig.Bytes}, true
}

// readCache loads a cache's pairs from its node.
func (e *Engine) readCache(ref cacheRef) ([]records.Pair, error) {
	reg := e.ctrl.Registry(ref.node)
	data, ok := reg.Get(ref.pid, ref.typ)
	if !ok {
		if e.brokenRecovery {
			// Deliberately wrong (see BreakRecoveryForTest): a lost
			// cache reads back as empty instead of erroring.
			return nil, nil
		}
		return nil, fmt.Errorf("core: cache %s (%v) lost from node %d mid-recurrence", ref.pid, ref.typ, ref.node)
	}
	// The decode is zero-copy over the registry's private copy
	// (Registry.Get copies out of the node store, so the views cannot
	// observe later cache mutations).
	return colfmt.DecodePairs(data)
}

// runPaneMapPhase maps one pane's physical segments. In proactive mode
// each segment becomes schedulable as its data arrives; otherwise the
// whole pane waits for the trigger. Header lookups for shared
// multi-pane files are charged as extra read bytes. Segment compute
// (decode + user map) overlaps across segments via PrepareMapPhase;
// commits then replay serially in segment order so the timeline is
// identical to a serial run.
func (e *Engine) runPaneMapPhase(src int, p window.PaneID, trigger simtime.Time, stats *mapreduce.Stats) (*mapreduce.MapPhaseResult, error) {
	ins, ok := e.srcs[src].PaneInputs(p)
	if !ok {
		return nil, fmt.Errorf("core: query %q: pane %d of source %d not flushed", e.query.Name, p, src)
	}
	job := e.paneJob(src)
	preps := make([]*mapreduce.MapPhasePrep, len(ins))
	if err := parallel.ForErr(e.mr.WorkerCount(), len(ins), func(i int) error {
		var err error
		preps[i], err = e.mr.PrepareMapPhase(job, []mapreduce.Input{ins[i].Input})
		return err
	}); err != nil {
		return nil, err
	}
	var parts []*mapreduce.MapPhaseResult
	earliest := trigger
	for i, seg := range ins {
		ready := trigger
		if e.proactive {
			ready = simtime.Max(seg.AvailableAt, 0)
		}
		if i == 0 || ready < earliest {
			earliest = ready
		}
		mp, err := e.mr.CommitMapPhase(preps[i], ready)
		if err != nil {
			return nil, err
		}
		mp.Stats.BytesRead += seg.HeaderBytes
		parts = append(parts, mp)
	}
	merged := mapreduce.MergeMapPhases(parts, e.query.NumReducers, earliest)
	stats.Accumulate(merged.Stats)
	e.obs.Span(obs.QueryTrack(e.query.Name), "phase",
		fmt.Sprintf("map %s pane %d", e.query.Sources[src].Name, p),
		earliest, merged.LastMapEnd,
		obs.L("segments", fmt.Sprint(len(ins))))
	return merged, nil
}

// paneJob builds the per-pane MapReduce job spec for one source.
func (e *Engine) paneJob(src int) *mapreduce.Job {
	return &mapreduce.Job{
		Name:             fmt.Sprintf("%s/%s", e.query.Name, e.query.Sources[src].Name),
		Map:              e.query.Maps[src],
		Reduce:           e.query.Reduce,
		Combine:          e.query.Combine,
		NumReducers:      e.query.NumReducers,
		Partition:        e.query.Partition,
		CacheReduceInput: true,
		LocalOutput:      true, // pane outputs are reduce-output caches
		Place:            e.sched,
		Query:            e.acctName,
	}
}

// cacheTask reports one scheduled cache-fed task: where it ran, its
// slot occupancy, and the task span recorded for it.
type cacheTask struct {
	node  int
	start simtime.Time
	end   simtime.Time
	dur   simtime.Duration
	span  obs.SpanID
}

// runCacheTask schedules one cache-fed reduce-style task: the node is
// chosen by Equation 4, the caches are charged local/remote reads, and
// work is the supplied extra duration. The recorded task span depends
// on the spans that produced the caches this recurrence (a carried-over
// cache contributes no edge — the hit short-circuits the walk), and
// each named cache's load cost nets the saving of a hit on it. The
// slot time is split for the cost ledger: the cache-load share under
// PhaseCacheLoad, the supplied work under the caller's phase, summing
// exactly to the node's AddLoad.
func (e *Engine) runCacheTask(name string, phase account.Phase, ready simtime.Time, caches []cacheRef, work simtime.Duration) cacheTask {
	locs := make([]CacheLoc, len(caches))
	deps := make([]obs.SpanID, 0, len(caches))
	for i, c := range caches {
		locs[i] = c.loc()
		if c.readyAt > ready {
			ready = c.readyAt
		}
		deps = append(deps, c.span)
	}
	node := e.sched.PickCacheTaskNode(ready, locs)
	load := e.sched.CacheCost(node.ID, locs)
	dur := load + work
	start, end := node.Reduce.Acquire(ready, dur)
	node.AddLoad(dur)
	e.acct.AddCompute(e.acctName, account.PhaseCacheLoad, load)
	e.acct.AddCompute(e.acctName, phase, work)
	for _, c := range caches {
		local := c.node == node.ID
		locality := "remote"
		if local {
			locality = "local"
		}
		e.obs.Counter("redoop_cache_read_bytes_total", obs.L("locality", locality)).Add(float64(c.bytes))
		if c.pid != "" {
			// Net a hit's saving by the load actually paid (no-op for
			// caches that were not hit this recurrence).
			e.acct.CacheLoaded(c.pid, int(c.typ), e.mr.Cost.CacheRead(c.bytes, local))
		}
	}
	span := e.obs.Task(obs.TaskSpan{
		Track: obs.NodeTrack(node.ID), Cat: "cachetask", Name: name,
		Start: start, End: end, Ready: ready,
		Parent: e.mr.SpanParent, Deps: deps,
		Args: []obs.Label{obs.L("caches", fmt.Sprint(len(caches))), obs.L("query", e.query.Name)},
	})
	return cacheTask{node: node.ID, start: start, end: end, dur: dur, span: span}
}

// retireExpired marks panes that have slid out of every window (as of
// the *next* recurrence) and exhausted their lifespans as done for this
// query, triggering purge notifications, and shifts the status matrix.
// Each source retires against its own window frame; the per-source
// bound advances only past the leading run of exhausted panes so a
// pane with pending partner work is retried next recurrence. `at` is
// the recurrence's completion instant — the ledger closes purged
// caches' byte·second residency there, but only when MarkQueryDone
// reports the cache actually purged (shared caches survive until every
// consumer retires them, and keep accruing until then).
func (e *Engine) retireExpired(r int, at simtime.Time) {
	R := e.query.NumReducers
	n := len(e.query.Sources)
	for d := 0; d < n; d++ {
		nextLo, _ := e.frames[d].WindowRange(r + 1)
		p := e.expiredBound[d]
		for ; p < nextLo; p++ {
			if !e.matrix.Exhausted(d, p) {
				break
			}
			for part := 0; part < R; part++ {
				rin := e.query.rinPID(d, e.frames[d].Pane, p, part)
				if e.ctrl.MarkQueryDone(rin, ReduceInput, e.qIdx) {
					e.acct.CacheExpired(rin, int(ReduceInput), at)
					e.lin.MarkExpired(lineage.DerivID(rin, int(ReduceInput)), int64(at))
				}
				if n == 1 {
					rout := e.query.routPanePID(p, part)
					if e.ctrl.MarkQueryDone(rout, ReduceOutput, e.qIdx) {
						e.acct.CacheExpired(rout, int(ReduceOutput), at)
						e.lin.MarkExpired(lineage.DerivID(rout, int(ReduceOutput)), int64(at))
					}
				}
			}
			if n > 1 {
				// Tuple outputs expire when the tuple can appear in
				// no future window: once pane p has left every window
				// of its source, every tuple with p at that
				// coordinate (partners within p's lifespan) is dead.
				e.forEachLifespanTuple(d, p, func(t paneTuple) {
					for part := 0; part < R; part++ {
						rout := e.query.routTuplePID(t, part)
						if e.ctrl.MarkQueryDone(rout, ReduceOutput, e.qIdx) {
							e.acct.CacheExpired(rout, int(ReduceOutput), at)
							e.lin.MarkExpired(lineage.DerivID(rout, int(ReduceOutput)), int64(at))
						}
					}
				})
			}
			// The pane's DFS files exist only to (re)build caches; an
			// expired pane can never be needed again, so its files are
			// garbage-collected to bound DFS growth ("after the
			// recurring query finishes, all files storing cached data
			// are removed", §5 — done incrementally here). Deletion
			// failures are not fatal; the file lingers.
			_ = e.srcs[d].DropPaneFiles(p)
		}
		if p > e.expiredBound[d] {
			if e.obs.EmitEnabled() {
				panes := make([]int64, 0, int(p-e.expiredBound[d]))
				for q := e.expiredBound[d]; q < p; q++ {
					panes = append(panes, int64(q))
				}
				e.obs.Emit(e.curTrigger, eventlog.PaneRetire, e.query.Name,
					eventlog.PaneRetireData{Source: d, Panes: panes})
			}
			e.mu.Lock()
			e.expiredBound[d] = p
			e.mu.Unlock()
		}
	}
	e.matrix.Shift(r + 1)
}

// forEachLifespanTuple enumerates the tuples with pane p pinned at
// dimension dim and every other coordinate ranging over p's lifespan
// in that dimension.
func (e *Engine) forEachLifespanTuple(dim int, p window.PaneID, fn func(paneTuple)) {
	n := len(e.query.Sources)
	los := make([]window.PaneID, n)
	his := make([]window.PaneID, n)
	for d := 0; d < n; d++ {
		if d == dim {
			los[d], his[d] = p, p
			continue
		}
		lo, hi, ok := e.frames[dim].LifespanIn(p, e.frames[d])
		if !ok {
			return // pane precedes window 0: no tuples exist
		}
		los[d], his[d] = lo, hi
	}
	forEachTupleRanges(los, his, fn)
}

// linRecordWindow records the emitted window of recurrence r as a
// derivation node consuming the window's pane (or pane-tuple) output
// caches. Window nodes are born expired: their bytes go to the consumer
// rather than a cache, so they must not pin the store's bounded
// eviction the way resident caches do.
func (e *Engine) linRecordWindow(r int, res *RecurrenceResult) {
	if e.lin == nil {
		return
	}
	q := e.query
	var inputs []lineage.InputRef
	if len(q.Sources) == 1 {
		for p := res.WindowLo; p <= res.WindowHi; p++ {
			for part := 0; part < q.NumReducers; part++ {
				inputs = append(inputs, e.linInput(q.routPanePID(p, part), ReduceOutput))
			}
		}
	} else {
		n := len(q.Sources)
		los := make([]window.PaneID, n)
		his := make([]window.PaneID, n)
		for d := 0; d < n; d++ {
			los[d], his[d] = e.frames[d].WindowRange(r)
		}
		forEachTupleRanges(los, his, func(t paneTuple) {
			for part := 0; part < q.NumReducers; part++ {
				inputs = append(inputs, e.linInput(q.routTuplePID(t, part), ReduceOutput))
			}
		})
	}
	data := colfmt.EncodePairs(res.Output)
	e.lin.RecordDerivation(lineage.Derivation{
		ID: lineage.WindowID(e.acctName, r), Kind: "window", Query: e.acctName,
		Fingerprint: e.planFP, Recurrence: r, Pane: int64(res.WindowLo),
		Bytes: int64(len(data)), SHA: lineage.SHA(data),
		CostNS: int64(res.ResponseTime), Inputs: inputs, Expired: true,
	})
	e.obs.Emit(res.CompletedAt, eventlog.LineageDerived, q.Name, eventlog.LineageDerivedData{
		ID: lineage.WindowID(e.acctName, r), Kind: "window",
		Pane: int64(res.WindowLo), Bytes: int64(len(data)), Fingerprint: e.planFP,
	})
}

// containsPID reports whether a task-list entry ID references the pid.
func containsPID(id, pid string) bool {
	return pid != "" && strings.Contains(id, pid)
}
