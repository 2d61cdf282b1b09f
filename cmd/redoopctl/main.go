// Command redoopctl runs a recurring query over generated data on the
// simulated cluster and reports per-window results — a workbench for
// exploring Redoop's behaviour without writing code.
//
// Usage:
//
//	redoopctl [metrics|explain|health|profile|costs|lineage|reuse] [-query agg|join] [-overlap 0.9]
//	          [-windows 10] [-records 120000] [-adaptive] [-baseline]
//	          [-failnode N] [-dropcaches] [-chaos SEED[:profile]]
//	          [-top K] [-seed N]
//	          [-workers N] [-spikewin N] [-spikefactor F] [-deadline DUR]
//	          [-cache-budget BYTESEC]
//	          [-metrics-out FILE] [-trace-out FILE] [-serve ADDR]
//	          [-folded-out FILE] [-critpath-out FILE]
//	          [-dot-out FILE] [-lineage-out FILE]
//
// -workers sets the host-side parallel compute pool the engine uses
// (0 = GOMAXPROCS, 1 = serial). It changes only real elapsed time:
// every simulated result — outputs, virtual timings, stats — is
// byte-identical across settings.
//
// -query agg runs the WCC click-ranking aggregation (the paper's Q1);
// -query join runs the FFG sensor join (Q2). -baseline executes the
// same query with the plain-Hadoop driver instead of Redoop.
//
// The "metrics" subcommand runs the query and dumps the full
// Prometheus text exposition of its metrics to stdout (the per-window
// table moves to stderr), so `redoopctl metrics | grep cache` works; a
// p50/p90/p99 quantile table of every histogram follows on stderr.
//
// The "explain" subcommand runs the query and renders a per-recurrence
// decision report from the flight recorder: the Equation 4 placement
// audit (each candidate node's Load_i + C_task,i and the chosen node),
// cache hit/miss/lost attribution per pane, and the Holt forecast vs.
// actual response times with re-plan markers. The per-window table
// moves to stderr.
//
// The "health" subcommand runs the query and prints the SLO monitor's
// per-query status table: deadline headroom against the slide, the
// watermark window lag, miss streaks and forecast-residual anomalies.
// -spikewin N multiplies the input volume of window N by -spikefactor
// (default 10) — an oversized-batch fault that exercises the anomaly
// detector. -deadline DUR tightens the SLO deadline from the natural
// slide (simulated responses are virtual milliseconds against
// multi-minute slides) so misses and the AT_RISK/MISSING_DEADLINES
// escalation can be observed on a real run. -cache-budget B flags any
// query whose cumulative cache occupancy exceeds B byte·seconds as
// AT_RISK (cost governance; 0 disables) — it escalates an OK status
// only, never masking a worse deadline-driven one, and applies to
// deadline-less queries too.
//
// The "profile" subcommand runs the query twice — once on a serial
// compute pool, once on the -workers pool (default GOMAXPROCS) — and
// prints the critical-path profile of the parallel run: per-query
// critical-path length, phase and wait breakdowns, the top-K
// critical-path segments, and an Amdahl serial fraction inverted from
// the two runs' host wall-clock speedup (the virtual results are
// byte-identical by construction, so the comparison isolates host-side
// parallelism). The run fails with a non-zero exit if a critical path
// does not tile its recurrence's wall-clock exactly. Cache savings are
// reported by the "costs" subcommand, whose ledger also fails the run
// when a reuse cost more than the recompute it avoided.
// -folded-out writes the flamegraph folded stacks and -critpath-out
// the Chrome-trace critical-path overlay (both also work outside the
// profile subcommand, from the same instrumented run).
//
// The "costs" subcommand runs BOTH figure workloads — the WCC
// aggregation as tenant-a and the FFG join as tenant-b — against one
// shared cost ledger and prints the accounting report: the top-K
// queries by attributed compute with per-phase breakdowns, IO bytes,
// cache occupancy in byte·seconds, recompute nanoseconds saved by
// cache hits, and the cache-ROI quotient (saved ns per resident
// byte·second), followed by per-tenant rollups. After each run the
// ledger's conservation invariants are checked against the engine's
// own totals — attributed slot compute must not exceed the cluster's
// accrued busy time, and cache residencies must reconcile — and any
// violation fails the invocation with a non-zero exit (the CI smoke
// step relies on this). The report is byte-identical across -workers
// settings because all metering happens in serial commit paths.
//
// The "lineage" subcommand runs BOTH figure workloads against one
// shared provenance store and cost ledger, with the differential
// oracle attached to every window: besides the byte-for-byte output
// check, the oracle's lineage pass machine-checks the store — closure
// (every resident cache copy has a derivation, every claimed batch and
// input edge resolves, consumer links are symmetric) and a sampled
// derivation audit that recomputes pane bytes strictly from the
// lineage-claimed input records and asserts SHA equality with what the
// store recorded. Any violation fails the invocation with a non-zero
// exit (the CI smoke step relies on this). The report prints the
// per-query plan fingerprint, the final window's derivation DAG with
// per-edge virtual-time build costs joined against the cost ledger's
// attributed compute, and the store totals. -dot-out writes the whole
// derivation DAG as a Graphviz digraph and -lineage-out as JSON; both
// also work outside the subcommand (they attach a provenance store to
// any Redoop run) and are written even when the run fails partway.
//
// The "reuse" subcommand runs the cross-query reuse workload — two
// identical Figure-6 aggregations plus a coarser tumbling roll-up over
// one shared WCC stream — twice, with the fingerprint-keyed reuse
// index (internal/reuse) detached and attached, the differential
// oracle verifying every window of both runs. The report contrasts
// per-query map tasks and pane accounting between the variants and
// prints the cost ledger's cross-query savings attribution plus the
// index counters. The invocation fails with a non-zero exit if any
// query's window outputs differ byte-for-byte between reuse off and
// on, or if the identical-geometry sibling still ran map tasks of its
// own with reuse enabled (the CI smoke step relies on this). -chaos
// composes: both variants then run under the same seeded fault
// schedule.
//
// -chaos SEED[:profile] runs the query under a deterministic seeded
// fault schedule (node crashes and revivals, cache losses, pane-file
// corruption, delayed batches, stragglers — profile selects the fault
// family, default mixed) with the differential window oracle attached:
// every window's output is verified byte-for-byte against an
// independent recomputation plus the engine's structural invariants,
// and the per-window table gains an oracle column. A divergence fails
// the run. Incompatible with -baseline (the oracle checks the Redoop
// engine against the baseline semantics).
//
// -serve ADDR starts the live introspection HTTP server (endpoints:
// /metrics, /debug/events, /debug/cache, /debug/panes, /debug/health,
// /debug/stream) before the run and keeps the process alive after it
// finishes, until interrupted, so the final state stays inspectable.
//
// Independently, -metrics-out and -trace-out write the exposition and
// a Perfetto-loadable Chrome trace JSON to files; both are written
// even when the run fails partway (e.g. under -failnode or
// -dropcaches fault injection), so the partial run stays inspectable.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"redoop/internal/account"
	"redoop/internal/baseline"
	"redoop/internal/chaos"
	"redoop/internal/core"
	"redoop/internal/experiments"
	"redoop/internal/explain"
	"redoop/internal/health"
	"redoop/internal/lineage"
	"redoop/internal/mapreduce"
	"redoop/internal/obs"
	"redoop/internal/obs/eventlog"
	"redoop/internal/obsserver"
	"redoop/internal/oracle"
	"redoop/internal/profile"
	"redoop/internal/queries"
	"redoop/internal/records"
	"redoop/internal/simtime"
	"redoop/internal/workload"
)

func main() {
	var (
		queryKind   = flag.String("query", "agg", "query to run: agg (Q1, WCC) or join (Q2, FFG)")
		overlap     = flag.Float64("overlap", 0.9, "window overlap factor (win-slide)/win")
		windows     = flag.Int("windows", 10, "number of recurrences")
		recs        = flag.Int("records", 120000, "records per window")
		adaptive    = flag.Bool("adaptive", false, "enable adaptive input partitioning")
		useBase     = flag.Bool("baseline", false, "run the plain-Hadoop baseline instead of Redoop")
		failNode    = flag.Int("failnode", -1, "kill this node before window 3")
		dropCache   = flag.Bool("dropcaches", false, "drop one node's caches before every window")
		chaosArg    = flag.String("chaos", "", "run under a seeded deterministic fault schedule with the oracle verifying every window: SEED[:profile] (profiles: mixed, crash, cacheloss, corrupt, delay, straggle, speculative, none)")
		topK        = flag.Int("top", 5, "print the top-K results of the final window")
		seed        = flag.Int64("seed", 42, "generator seed")
		workers     = flag.Int("workers", 0, "parallel compute pool: 0 = GOMAXPROCS, 1 = serial (simulated results are identical either way)")
		spikeWin    = flag.Int("spikewin", -1, "multiply this window's input volume by -spikefactor (oversized-batch fault)")
		spikeFac    = flag.Float64("spikefactor", 10, "input volume multiplier for -spikewin")
		deadline    = flag.Duration("deadline", 0, "override the SLO deadline (default: the query's slide, in virtual time)")
		cacheBudget = flag.Float64("cache-budget", 0, "flag queries whose cumulative cache occupancy exceeds this many byte·seconds as AT_RISK (0 disables)")
		metricsOut  = flag.String("metrics-out", "", "write a Prometheus text exposition of the run's metrics to this file")
		traceOut    = flag.String("trace-out", "", "write a Perfetto-loadable Chrome trace JSON of the run to this file")
		foldedOut   = flag.String("folded-out", "", "write flamegraph folded stacks of the run's task spans to this file")
		critpathOut = flag.String("critpath-out", "", "write a Chrome trace JSON with the critical-path overlay to this file")
		dotOut      = flag.String("dot-out", "", "write the run's derivation DAG as a Graphviz digraph to this file (attaches a provenance store)")
		lineageOut  = flag.String("lineage-out", "", "write the run's provenance store (stats, plans, derivation DAG) as JSON to this file")
		serveAddr   = flag.String("serve", "", "serve the live introspection HTTP endpoints on this address (e.g. :8080) during the run, then until interrupted")
	)
	args := os.Args[1:]
	metricsMode := len(args) > 0 && args[0] == "metrics"
	explainMode := len(args) > 0 && args[0] == "explain"
	healthMode := len(args) > 0 && args[0] == "health"
	profileMode := len(args) > 0 && args[0] == "profile"
	costsMode := len(args) > 0 && args[0] == "costs"
	lineageMode := len(args) > 0 && args[0] == "lineage"
	reuseMode := len(args) > 0 && args[0] == "reuse"
	if metricsMode || explainMode || healthMode || profileMode || costsMode || lineageMode || reuseMode {
		args = args[1:]
	} else if len(args) > 0 && len(args[0]) > 0 && args[0][0] != '-' {
		fmt.Fprintf(os.Stderr, "redoopctl: unknown subcommand %q (want metrics, explain, health, profile, costs, lineage or reuse)\n", args[0])
		os.Exit(2)
	}
	flag.CommandLine.Parse(args)
	if flag.CommandLine.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "redoopctl: unexpected argument %q\n", flag.CommandLine.Arg(0))
		os.Exit(2)
	}

	cfg := experiments.Default()
	cfg.Windows = *windows
	cfg.RecordsPerWindow = *recs
	cfg.Seed = *seed
	cfg.ExecWorkers = *workers

	var chaosSched *chaos.Schedule
	if *chaosArg != "" {
		if *useBase {
			fmt.Fprintln(os.Stderr, "redoopctl: -chaos cannot be combined with -baseline (the oracle verifies the Redoop engine against baseline semantics)")
			os.Exit(2)
		}
		_, cseed, cprofile, err := chaos.ParseSpec(*chaosArg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "redoopctl: %v\n", err)
			os.Exit(2)
		}
		chaosSched, err = chaos.Generate(cseed, cprofile, cfg.Windows, cfg.Workers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "redoopctl: %v\n", err)
			os.Exit(2)
		}
	}

	if profileMode && *useBase {
		fmt.Fprintln(os.Stderr, "redoopctl: profile needs the instrumented Redoop engine; it cannot be combined with -baseline")
		os.Exit(2)
	}
	if (lineageMode || *dotOut != "" || *lineageOut != "") && *useBase {
		fmt.Fprintln(os.Stderr, "redoopctl: the baseline driver records no provenance; lineage cannot be combined with -baseline")
		os.Exit(2)
	}

	// Lineage mode (and the standalone DAG artifacts) attach a shared
	// provenance store; the subcommand's report additionally joins the
	// DAG against the cost ledger, so it needs one. -serve attaches
	// one too (baseline excepted — it records no provenance), so
	// /debug/lineage has a live store to show.
	if lineageMode || *dotOut != "" || *lineageOut != "" || (*serveAddr != "" && !*useBase) {
		cfg.Lineage = lineage.New(0)
	}
	if lineageMode && cfg.Account == nil {
		cfg.Account = account.New()
	}

	var ob *obs.Observer
	if metricsMode || explainMode || healthMode || profileMode ||
		*serveAddr != "" || *metricsOut != "" || *traceOut != "" || *foldedOut != "" || *critpathOut != "" {
		ob = obs.New()
		cfg.Obs = ob
	}

	// One shared SLO monitor so the health table survives the run and
	// the introspection server's /debug/health sees the same trackers.
	hcfg := health.DefaultConfig()
	hcfg.DeadlineOverride = simtime.Duration(*deadline)
	hcfg.CacheByteSecondBudget = *cacheBudget
	// The budget check reads cache occupancy from the cost ledger, so
	// health mode needs one attached for the numbers to be non-zero.
	if healthMode && cfg.Account == nil {
		cfg.Account = account.New()
	}
	mon := health.NewMonitor(hcfg)
	if ob != nil {
		mon.SetObserver(ob)
	}
	cfg.Health = mon

	var srv *obsserver.Server
	if *serveAddr != "" {
		srv = obsserver.New(ob)
		addr, err := srv.Start(*serveAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "redoopctl: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[introspection server on http://%s]\n", addr)
		cfg.OnEngine = func(e *core.Engine) { srv.Attach(e) }
	}

	// In metrics, explain, health, profile, costs and lineage mode the
	// report owns stdout; the table moves to stderr so both remain
	// usable.
	tableOut := io.Writer(os.Stdout)
	if metricsMode || explainMode || healthMode || profileMode || costsMode || lineageMode || reuseMode {
		tableOut = os.Stderr
	}

	// The profile subcommand measures an Amdahl reference point first: an
	// identical run on a serial compute pool (own observer and monitor —
	// its instrumentation must not mix into the profiled run). Virtual
	// results are byte-identical across pool widths, so comparing the two
	// host wall-clocks isolates parallel-execution speedup.
	var serialElapsed time.Duration
	if profileMode {
		scfg := cfg
		scfg.ExecWorkers = 1
		scfg.Obs = nil
		scfg.Health = health.NewMonitor(hcfg)
		scfg.OnEngine = nil
		t0 := time.Now()
		if _, err := run(io.Discard, scfg, *queryKind, *overlap, *adaptive, *useBase, *failNode, *dropCache, 0, *spikeWin, *spikeFac, chaosSched, false, ""); err != nil {
			fmt.Fprintf(os.Stderr, "redoopctl: serial reference run: %v\n", err)
			os.Exit(1)
		}
		serialElapsed = time.Since(t0)
	}

	t0 := time.Now()
	var runErr error
	switch {
	case costsMode:
		runErr = runCosts(tableOut, os.Stdout, cfg, *overlap, *adaptive, *failNode, *dropCache, *topK, *spikeWin, *spikeFac, chaosSched)
	case lineageMode:
		runErr = runLineage(tableOut, os.Stdout, cfg, *overlap, *adaptive, *failNode, *dropCache, *spikeWin, *spikeFac, chaosSched)
	case reuseMode:
		runErr = runReuse(os.Stdout, cfg, chaosSched)
	default:
		_, runErr = run(tableOut, cfg, *queryKind, *overlap, *adaptive, *useBase, *failNode, *dropCache, *topK, *spikeWin, *spikeFac, chaosSched, false, "")
	}
	parallelElapsed := time.Since(t0)

	// Artifacts and the metrics dump are emitted even on failure so
	// fault-injected runs leave their partial series behind. A failed
	// artifact write is itself a failure: scripts must not read a
	// clean exit as "the artifact exists".
	artifactErr := false
	if ob != nil {
		if metricsMode {
			if err := ob.Metrics.WritePrometheus(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "redoopctl: metrics dump: %v\n", err)
				artifactErr = true
			}
			fmt.Fprintln(os.Stderr)
			if err := ob.Metrics.WriteQuantileTable(os.Stderr); err != nil {
				fmt.Fprintf(os.Stderr, "redoopctl: quantile table: %v\n", err)
				artifactErr = true
			}
		}
		if explainMode {
			rep := explain.FromLog(ob.Events, queryName(*queryKind))
			if err := rep.Write(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "redoopctl: explain: %v\n", err)
				artifactErr = true
			}
		}
	}
	if healthMode {
		if *useBase {
			fmt.Fprintln(os.Stderr, "redoopctl: the baseline driver has no health monitor; showing an empty table")
		}
		if err := mon.WriteText(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "redoopctl: health: %v\n", err)
			artifactErr = true
		}
	}
	if ob != nil {
		if *metricsOut != "" {
			if err := ob.Metrics.WriteMetricsFile(*metricsOut); err != nil {
				fmt.Fprintf(os.Stderr, "redoopctl: metrics-out: %v\n", err)
				artifactErr = true
			}
		}
		if *traceOut != "" {
			if err := ob.Tracer.WriteTraceFile(*traceOut); err != nil {
				fmt.Fprintf(os.Stderr, "redoopctl: trace-out: %v\n", err)
				artifactErr = true
			}
		}
	}
	if ob != nil && (profileMode || *foldedOut != "" || *critpathOut != "") {
		p := profile.Analyze(ob.Tracer.Events())
		if profileMode {
			if err := p.Text(os.Stdout, *topK); err != nil {
				fmt.Fprintf(os.Stderr, "redoopctl: profile report: %v\n", err)
				artifactErr = true
			}
			poolN := *workers
			if poolN <= 0 {
				poolN = runtime.GOMAXPROCS(0)
			}
			speedup := 0.0
			if parallelElapsed > 0 {
				speedup = float64(serialElapsed) / float64(parallelElapsed)
			}
			fmt.Printf("parallel execution: serial %v vs %d-worker %v → speedup %.2fx, Amdahl serial fraction %.3f\n",
				serialElapsed.Round(time.Millisecond), poolN, parallelElapsed.Round(time.Millisecond),
				speedup, profile.SerialFraction(speedup, poolN))
		}
		if *foldedOut != "" {
			if err := p.WriteFoldedFile(*foldedOut); err != nil {
				fmt.Fprintf(os.Stderr, "redoopctl: folded-out: %v\n", err)
				artifactErr = true
			}
		}
		if *critpathOut != "" {
			if err := p.WriteCritPathTraceFile(*critpathOut); err != nil {
				fmt.Fprintf(os.Stderr, "redoopctl: critpath-out: %v\n", err)
				artifactErr = true
			}
		}
		// The profiler's structural guarantee is part of the contract: a
		// critical path that does not tile its recurrence fails the
		// invocation.
		if err := p.CheckInvariants(); err != nil {
			fmt.Fprintf(os.Stderr, "redoopctl: %v\n", err)
			artifactErr = true
		}
	}
	if cfg.Lineage != nil && (*dotOut != "" || *lineageOut != "") {
		if err := writeLineageArtifacts(cfg.Lineage, *dotOut, *lineageOut); err != nil {
			fmt.Fprintf(os.Stderr, "redoopctl: %v\n", err)
			artifactErr = true
		}
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "redoopctl: %v\n", runErr)
		os.Exit(1)
	}
	if artifactErr {
		os.Exit(1)
	}
	if srv != nil {
		fmt.Fprintf(os.Stderr, "[run finished; introspection server still up — Ctrl-C to exit]\n")
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
	}
}

// queryName maps the -query flag onto the query name the run
// constructs, for event-log filtering.
func queryName(kind string) string {
	if kind == "join" {
		return "q2"
	}
	return "q1"
}

// runCosts is the costs subcommand: both figure workloads, different
// tenants, one shared ledger; prints the accounting report to reportW
// and fails when any conservation invariant is violated.
func runCosts(tableW, reportW io.Writer, cfg experiments.Config, overlap float64, adaptive bool, failNode int, dropCache bool, topK, spikeWin int, spikeFac float64, chaosSched *chaos.Schedule) error {
	acct := account.New()
	cfg.Account = acct
	var violations []string
	for _, wl := range []struct{ kind, tenant string }{
		{"agg", "tenant-a"},
		{"join", "tenant-b"},
	} {
		eng, err := run(tableW, cfg, wl.kind, overlap, adaptive, false, failNode, dropCache, 0, spikeWin, spikeFac, chaosSched, false, wl.tenant)
		if err != nil {
			return err
		}
		fmt.Fprintln(tableW)
		// Reconcile the ledger against the engine's own totals: the
		// compute attributed to this query can be at most the busy time
		// its cluster accrued, and every registered residency must have
		// been expired or still be open.
		var busy int64
		for _, n := range eng.MR().Cluster.Nodes() {
			busy += int64(n.Load())
		}
		name := eng.AccountName()
		if err := acct.CheckConservation(busy, name); err != nil {
			violations = append(violations, err.Error())
			fmt.Fprintf(reportW, "conservation %-4s VIOLATED: %v\n", name, err)
		} else {
			fmt.Fprintf(reportW, "conservation %-4s ok: slot compute %s ≤ cluster busy %s\n",
				name, fmtMS(simtime.Duration(acct.SlotComputeNS(name))), fmtMS(simtime.Duration(busy)))
		}
	}
	fmt.Fprintln(reportW)
	if err := account.WriteReport(reportW, acct.Snapshot(), topK); err != nil {
		return err
	}
	if len(violations) > 0 {
		return fmt.Errorf("ledger conservation violated: %s", strings.Join(violations, "; "))
	}
	return nil
}

func run(w io.Writer, cfg experiments.Config, kind string, overlap float64, adaptive, useBase bool, failNode int, dropCache bool, topK, spikeWin int, spikeFac float64, chaosSched *chaos.Schedule, forceOracle bool, tenant string) (*core.Engine, error) {
	mr := cfg.NewRuntime(7)
	slide := cfg.SlideFor(overlap)

	var q *core.Query
	var gen func(src int, start, end int64, n int) []records.Record
	sources := 1
	switch kind {
	case "agg":
		q = queries.WCCAggregation("q1", cfg.WindowDur, slide, cfg.Reducers)
		wcc := workload.DefaultWCC(cfg.Seed)
		gen = func(_ int, start, end int64, n int) []records.Record {
			return workload.WCC(wcc, start, end, n)
		}
	case "join":
		q = queries.FFGJoin("q2", cfg.WindowDur, slide, cfg.Reducers)
		ffg := workload.DefaultFFG(cfg.Seed)
		sources = 2
		gen = func(src int, start, end int64, n int) []records.Record {
			if src == 0 {
				return workload.FFGReadings(ffg, start, end, n)
			}
			return workload.FFGEvents(ffg, start, end, n/4)
		}
	default:
		return nil, fmt.Errorf("unknown query %q (want agg or join)", kind)
	}

	q.TenantID = tenant

	spec := q.Spec()
	pane := spec.PaneUnit()
	perPane := int(float64(cfg.RecordsPerWindow) / float64(spec.PanesPerWindow()))
	fmt.Fprintf(w, "query=%s overlap=%.2f win=%v slide=%v pane=%v records/window=%d system=%s adaptive=%v\n\n",
		kind, overlap, time.Duration(spec.Win), time.Duration(spec.Slide),
		time.Duration(pane), cfg.RecordsPerWindow, systemName(useBase), adaptive)

	var eng *core.Engine
	var drv *baseline.Driver
	var err error
	if useBase {
		drv, err = baseline.NewDriver(mr, q)
	} else {
		eng, err = core.NewEngine(core.Config{MR: mr, Query: q, Adaptive: adaptive, Health: cfg.Health, Account: cfg.Account, Lineage: cfg.Lineage})
	}
	if err != nil {
		return nil, err
	}
	if eng != nil && cfg.OnEngine != nil {
		cfg.OnEngine(eng)
	}

	ingest := func(src int, rs []records.Record) error {
		if useBase {
			return drv.Ingest(src, rs)
		}
		return eng.Ingest(src, rs)
	}
	// Under -chaos, batches tee into the oracle on their way to the
	// engine, and the injector's delay gate wraps the whole chain so a
	// held batch is still observed by the oracle when released. The
	// lineage subcommand forces the oracle on even without chaos — its
	// lineage pass is the machine check the subcommand exists for.
	var ora *oracle.Oracle
	var inj *chaos.Injector
	var oracleInner func(src int, rs []records.Record) error
	if chaosSched != nil || forceOracle {
		ora, err = oracle.New(eng)
		if err != nil {
			return nil, err
		}
		oracleInner = ora.WrapIngest(eng.Ingest)
		ingest = oracleInner
	}
	if chaosSched != nil {
		inj = chaos.NewInjector(chaosSched, mr)
		inj.OnCorrupt = ora.ExcludePath
		ingest = inj.WrapIngest(eng, oracleInner)
		fmt.Fprintf(w, "chaos: seed %d profile %s, %d scheduled faults\n\n",
			chaosSched.Seed, chaosSched.Profile, len(chaosSched.Actions))
	}

	fmt.Fprintf(w, "%-7s %14s %12s %12s %12s %s\n", "window", "response", "shuffle", "reduce", "read(B)", "notes")
	fed := 0
	var lastOut []records.Pair
	for r := 0; r < cfg.Windows; r++ {
		close := spec.WindowClose(r)
		// The oversized-batch fault: the slides first consumed by
		// window -spikewin carry -spikefactor times the volume.
		n := perPane
		if r == spikeWin {
			n = int(float64(perPane) * spikeFac)
		}
		for ; int64(fed)*pane < close; fed++ {
			start := int64(fed) * pane
			for src := 0; src < sources; src++ {
				if err := ingest(src, gen(src, start, start+pane, n)); err != nil {
					return nil, err
				}
			}
		}
		if failNode >= 0 && r == 2 {
			mr.DFS.FailNodeAt(failNode, simtime.Time(spec.WindowClose(r-1)))
			mr.Cluster.FailNode(failNode)
			cfg.Obs.Emit(simtime.Time(spec.WindowClose(r-1)), eventlog.NodeFailure, q.Name,
				eventlog.NodeFailureData{Node: failNode})
		}
		if dropCache && r > 0 && !useBase {
			mr.Cluster.DropLocal(r%mr.Cluster.Config().Workers, "cache/")
		}
		if inj != nil {
			if err := inj.BeforeRecurrence(r, eng, oracleInner); err != nil {
				return nil, err
			}
		}

		var resp, shuffle, reduce simtime.Duration
		var read int64
		var verdictErr error
		notes := ""
		if useBase {
			res, err := drv.RunNext()
			if err != nil {
				return nil, err
			}
			resp, shuffle, reduce, read = res.ResponseTime, res.Stats.ShuffleTime, res.Stats.ReduceTime, res.Stats.BytesRead
			lastOut = res.Output
		} else {
			res, err := eng.RunNext()
			if err != nil {
				return nil, err
			}
			resp, shuffle, reduce, read = res.ResponseTime, res.Stats.ShuffleTime, res.Stats.ReduceTime, res.Stats.BytesRead
			lastOut = res.Output
			notes = fmt.Sprintf("panes %d/%d", res.NewPanes, res.ReusedPanes)
			if sources == 2 {
				notes += fmt.Sprintf(" pairs %d/%d", res.NewPairs, res.ReusedPairs)
			}
			if res.CacheRecoveries > 0 {
				notes += fmt.Sprintf(" recovered=%d", res.CacheRecoveries)
			}
			if res.Proactive {
				notes += fmt.Sprintf(" proactive(sub=%d)", res.SubPanes)
			}
			if ora != nil {
				if ver := ora.Check(res); ver.OK() {
					notes += " oracle=ok"
				} else {
					notes += " oracle=FAIL"
					verdictErr = ver.Err()
				}
			}
		}
		fmt.Fprintf(w, "%-7d %14s %12s %12s %12d %s\n", r+1,
			fmtMS(resp), fmtMS(shuffle), fmtMS(reduce), read, notes)
		if verdictErr != nil {
			return nil, verdictErr
		}
	}

	if topK > 0 && len(lastOut) > 0 {
		fmt.Fprintf(w, "\nfinal window: %d output pairs", len(lastOut))
		if kind == "agg" {
			fmt.Fprintf(w, "; top %d by count:\n", topK)
			for _, r := range queries.RankTopK(lastOut, topK) {
				fmt.Fprintf(w, "  %-12s %d\n", r.Key, r.Count)
			}
		} else {
			fmt.Fprintf(w, "; a sample:\n")
			mapreduce.SortPairs(lastOut)
			for i := 0; i < topK && i < len(lastOut); i++ {
				fmt.Fprintf(w, "  %s = %s\n", lastOut[i].Key, lastOut[i].Value)
			}
		}
	}
	return eng, nil
}

func fmtMS(d simtime.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d)/1e6)
}

func systemName(useBase bool) string {
	if useBase {
		return "hadoop-baseline"
	}
	return "redoop"
}
