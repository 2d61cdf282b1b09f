package profile_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"redoop/internal/account"
	"redoop/internal/chaos"
	"redoop/internal/core"
	"redoop/internal/experiments"
	"redoop/internal/obs"
	"redoop/internal/profile"
	"redoop/internal/simtime"
)

// profCfg is the fixed small-scale shape of one profiled run: big
// enough for multi-wave maps and real cache reuse across the 0.75
// window overlap, small enough for test-suite time.
func profCfg(seed int64) experiments.Config {
	return experiments.Config{
		Workers:          6,
		MapSlots:         4,
		ReduceSlots:      2,
		BlockSize:        16 << 10,
		Windows:          5,
		WindowDur:        60 * simtime.Minute,
		RecordsPerWindow: 4000,
		Reducers:         4,
		Seed:             seed,
		Obs:              obs.New(),
	}
}

// TestProfileRealRun analyzes a clean oracle-checked aggregation run:
// every recurrence's critical path must tile its measured wall-clock
// exactly, the account ledger must show cache benefit, and the
// report/flamegraph exporters must produce non-trivial output.
func TestProfileRealRun(t *testing.T) {
	cfg := profCfg(42)
	cfg.Account = account.New()
	if _, err := cfg.RunChaosRegime("agg"); err != nil {
		t.Fatalf("run: %v", err)
	}
	p := profile.Analyze(cfg.Obs.Tracer.Events())
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if len(p.Recurrences) != cfg.Windows {
		t.Fatalf("got %d recurrences, want %d", len(p.Recurrences), cfg.Windows)
	}
	for _, rec := range p.Recurrences {
		if rec.Wall <= 0 {
			t.Fatalf("recurrence %d has non-positive wall %v", rec.Index, rec.Wall)
		}
		if rec.CritTask <= 0 {
			t.Fatalf("recurrence %d has no task time on its critical path", rec.Index)
		}
		if len(rec.Phases) == 0 || rec.Tasks == 0 {
			t.Fatalf("recurrence %d has no attributed tasks", rec.Index)
		}
	}
	// With 75% window overlap, every window after the first reuses
	// cached panes; the ledger must show strictly positive savings.
	if snap := cfg.Account.Snapshot(); len(snap) != 1 || snap[0].CacheHits == 0 || snap[0].SavedNS <= 0 {
		t.Fatalf("ledger shows no cache benefit despite overlapping windows: %+v", snap)
	}

	var report bytes.Buffer
	if err := p.Text(&report, 5); err != nil {
		t.Fatalf("Text: %v", err)
	}
	for _, want := range []string{"critical path", "top 5 critical-path segments"} {
		if !strings.Contains(report.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, report.String())
		}
	}
	var folded bytes.Buffer
	if err := p.WriteFolded(&folded); err != nil {
		t.Fatalf("WriteFolded: %v", err)
	}
	if !strings.Contains(folded.String(), ";recurrence ") {
		t.Fatalf("folded stacks look empty:\n%.400s", folded.String())
	}
}

// TestLedgerInvariantChaosSoak sweeps eight chaos seeds through the
// aggregation and join regimes: whatever the fault storm does —
// crashes, cache drops, stragglers, delayed batches — every pane
// served from cache must still save time (the account ledger's
// recompute ≥ netted load check) and every critical path must still
// tile its recurrence exactly.
func TestLedgerInvariantChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	for seed := int64(1); seed <= 8; seed++ {
		for _, regime := range []string{"agg", "join"} {
			t.Run(fmt.Sprintf("seed%d/%s", seed, regime), func(t *testing.T) {
				cfg := profCfg(100 + seed)
				sched, err := chaos.Generate(seed, chaos.ProfileMixed, cfg.Windows, cfg.Workers)
				if err != nil {
					t.Fatalf("generate schedule: %v", err)
				}
				cfg.Chaos = sched
				cfg.Account = account.New()
				var eng *core.Engine
				cfg.OnEngine = func(e *core.Engine) { eng = e }
				if _, err := cfg.RunChaosRegime(regime); err != nil {
					t.Fatalf("%s under %s: %v", regime, sched, err)
				}
				var busy int64
				for _, n := range eng.MR().Cluster.Nodes() {
					busy += int64(n.Load())
				}
				if err := cfg.Account.CheckConservation(busy); err != nil {
					t.Errorf("seed %d %s: %v", seed, regime, err)
				}
				p := profile.Analyze(cfg.Obs.Tracer.Events())
				if err := p.CheckInvariants(); err != nil {
					t.Errorf("seed %d %s: %v", seed, regime, err)
				}
				if len(p.Recurrences) != cfg.Windows {
					t.Errorf("seed %d %s: %d recurrences, want %d",
						seed, regime, len(p.Recurrences), cfg.Windows)
				}
			})
		}
	}
}
