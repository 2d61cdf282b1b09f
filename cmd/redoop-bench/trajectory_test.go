package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func mkSummary(rev string, makespanNS, steadyNS int64) summaryJSON {
	return summaryJSON{
		Tool: "redoop-bench",
		Rev:  rev,
		Figures: []figureJSON{{
			Name:  "Figure 6",
			Query: "q1",
			Panels: []panelJSON{{
				Overlap: 0.9,
				Series: []seriesJSON{{
					System:       "Redoop",
					MakespanNS:   makespanNS,
					MeanSteadyNS: steadyNS,
				}},
			}},
		}},
		Health: []queryHealthJSON{{
			Query: "q1", Status: "OK", Recurrences: 5,
		}},
	}
}

func TestSanitizeRev(t *testing.T) {
	for in, want := range map[string]string{
		"abc123":      "abc123",
		"feature/x y": "feature-x-y",
		"v1.2.3-rc1":  "v1.2.3-rc1",
		"..":          "..",
		"a\\b:c":      "a-b-c",
	} {
		if got := sanitizeRev(in); got != want {
			t.Errorf("sanitizeRev(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestFindPriorBench(t *testing.T) {
	dir := t.TempDir()
	if got, err := findPriorBench(dir, ""); err != nil || got != "" {
		t.Fatalf("empty dir: got %q err %v", got, err)
	}
	older := filepath.Join(dir, "BENCH_old.json")
	newer := filepath.Join(dir, "BENCH_new.json")
	if err := os.WriteFile(older, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newer, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Make mod times unambiguous.
	now := time.Now()
	os.Chtimes(older, now.Add(-time.Hour), now.Add(-time.Hour))
	os.Chtimes(newer, now, now)
	if got, err := findPriorBench(dir, ""); err != nil || got != newer {
		t.Errorf("prior = %q err %v, want %q", got, err, newer)
	}
	// The entry being written is excluded, so the next-newest wins.
	if got, err := findPriorBench(dir, newer); err != nil || got != older {
		t.Errorf("prior excluding newest = %q err %v, want %q", got, err, older)
	}
	// Non-BENCH files are ignored.
	os.WriteFile(filepath.Join(dir, "notes.json"), []byte("{}"), 0o644)
	if got, _ := findPriorBench(dir, newer); got != older {
		t.Errorf("prior with stray file = %q, want %q", got, older)
	}
}

func TestCompareSummaries(t *testing.T) {
	old := mkSummary("a", 1000, 100)
	cur := mkSummary("b", 1200, 90)
	rows := compareSummaries(old, cur)
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2 (makespan + meanSteady)", len(rows))
	}
	byMetric := map[string]deltaRow{}
	for _, r := range rows {
		byMetric[r.Metric] = r
	}
	if r := byMetric["makespan"]; r.Pct != 20 {
		t.Errorf("makespan pct = %v, want +20", r.Pct)
	}
	if r := byMetric["meanSteady"]; r.Pct != -10 {
		t.Errorf("meanSteady pct = %v, want -10", r.Pct)
	}

	// A series missing on one side is skipped, not an error.
	cur2 := cur
	cur2.Figures = append([]figureJSON(nil), cur.Figures...)
	cur2.Figures[0].Name = "Figure 7"
	if rows := compareSummaries(old, cur2); len(rows) != 0 {
		t.Errorf("disjoint figures produced %d rows, want 0", len(rows))
	}
}

func TestRegressReportThresholds(t *testing.T) {
	rows := []deltaRow{
		{Key: seriesKey{"Figure 6", 0.9, "Redoop"}, Metric: "makespan", OldNS: 1000, NewNS: 1080, Pct: 8},
	}
	var buf bytes.Buffer
	soft, hard := regressReport(&buf, "a", "b", rows, nil, nil, nil, nil, nil, 5, 15)
	if !soft || hard {
		t.Errorf("8%% over soft=5 hard=15: soft=%v hard=%v, want soft only", soft, hard)
	}
	if !strings.Contains(buf.String(), "<< regression") {
		t.Errorf("report lacks soft marker:\n%s", buf.String())
	}

	rows[0].Pct = 20
	buf.Reset()
	soft, hard = regressReport(&buf, "a", "b", rows, nil, nil, nil, nil, nil, 5, 15)
	if !hard {
		t.Errorf("20%% over hard=15: hard=%v, want true", hard)
	}
	if !strings.Contains(buf.String(), "HARD REGRESSION") {
		t.Errorf("report lacks hard marker:\n%s", buf.String())
	}

	rows[0].Pct = -8
	buf.Reset()
	soft, hard = regressReport(&buf, "a", "b", rows, nil, nil, nil, nil, nil, 5, 15)
	if soft || hard {
		t.Errorf("improvement flagged as regression: soft=%v hard=%v", soft, hard)
	}
	if !strings.Contains(buf.String(), "(improved)") {
		t.Errorf("report lacks improvement marker:\n%s", buf.String())
	}
}

func TestRegressReportHealthLines(t *testing.T) {
	hrows := []healthDelta{{
		Query:     "q1",
		MissesOld: 0, MissesNew: 2,
		StatusOld: "OK", StatusNew: "AT_RISK",
	}}
	var buf bytes.Buffer
	regressReport(&buf, "a", "b", []deltaRow{{Key: seriesKey{"f", 0.9, "Redoop"}, Metric: "makespan", OldNS: 1, NewNS: 1}}, hrows, nil, nil, nil, nil, 5, 15)
	out := buf.String()
	if !strings.Contains(out, "deadline misses 0 -> 2") || !strings.Contains(out, "status OK -> AT_RISK") {
		t.Errorf("health lines missing:\n%s", out)
	}
}

func TestCompareProfile(t *testing.T) {
	sf := func(v float64) *float64 { return &v }
	old := summaryJSON{Profile: &profileJSON{
		CritPathNS: 1000, CritPathOK: true, SerialFraction: sf(0.2),
	}}
	cur := summaryJSON{Profile: &profileJSON{
		CritPathNS: 1200, CritPathOK: true, SerialFraction: sf(0.3),
	}}
	notes := compareProfile(old, cur)
	joined := strings.Join(notes, "\n")
	for _, want := range []string{"critical path", "+20.0%", "serial fraction 0.200 -> 0.300"} {
		if !strings.Contains(joined, want) {
			t.Errorf("notes missing %q:\n%s", want, joined)
		}
	}
	if len(notes) != 2 {
		t.Errorf("notes = %v, want exactly the critical-path and serial-fraction lines", notes)
	}

	// A tiling violation in the new entry is reported even with no
	// prior profile to compare against.
	cur.Profile.CritPathOK = false
	notes = compareProfile(summaryJSON{}, cur)
	if len(notes) != 1 || !strings.Contains(notes[0], "VIOLATED") {
		t.Errorf("violation notes = %v", notes)
	}

	// No profile on the new side: nothing to say.
	if notes := compareProfile(old, summaryJSON{}); notes != nil {
		t.Errorf("nil profile produced notes: %v", notes)
	}
}

func TestCompareCosts(t *testing.T) {
	cur := summaryJSON{Costs: &costsJSON{
		ConservationOK: true,
		Queries: []costQueryJSON{{
			Query: "q1", TotalComputeNS: 1200, SavedNS: 400,
		}},
	}}
	old := summaryJSON{Costs: &costsJSON{
		ConservationOK: true,
		Queries: []costQueryJSON{{
			Query: "q1", TotalComputeNS: 1000, SavedNS: 500,
		}},
	}}
	notes := compareCosts(old, cur)
	joined := strings.Join(notes, "\n")
	for _, want := range []string{"q1 compute", "+20.0%", "cache saving", "-20.0%"} {
		if !strings.Contains(joined, want) {
			t.Errorf("notes missing %q:\n%s", want, joined)
		}
	}

	// A conservation violation in the new entry is reported even with
	// no prior costs block to compare against.
	cur.Costs.ConservationOK = false
	notes = compareCosts(summaryJSON{}, cur)
	if len(notes) != 1 || !strings.Contains(notes[0], "VIOLATED") {
		t.Errorf("violation notes = %v", notes)
	}

	// No costs block on the new side: nothing to say.
	if notes := compareCosts(old, summaryJSON{}); notes != nil {
		t.Errorf("nil costs produced notes: %v", notes)
	}
}

func TestCompareLineage(t *testing.T) {
	old := summaryJSON{Lineage: &lineageJSON{
		Nodes: 100, Edges: 200, DistinctFingerprints: 2, Rebuilds: 0,
	}}
	cur := summaryJSON{Lineage: &lineageJSON{
		Nodes: 120, Edges: 260, DistinctFingerprints: 3, Rebuilds: 1,
	}}
	notes := compareLineage(old, cur)
	joined := strings.Join(notes, "\n")
	for _, want := range []string{
		"derivations 100 -> 120", "edges 200 -> 260",
		"fingerprints 2 -> 3", "rebuilds 0 -> 1",
		"rebuilds on a clean run",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("notes missing %q:\n%s", want, joined)
		}
	}

	// Rebuilds under chaos are expected, not called out.
	cur.Chaos = &chaosJSON{}
	notes = compareLineage(summaryJSON{}, cur)
	if len(notes) != 0 {
		t.Errorf("chaos-run rebuilds produced notes: %v", notes)
	}

	// No lineage block on the new side: nothing to say.
	if notes := compareLineage(old, summaryJSON{}); notes != nil {
		t.Errorf("nil lineage produced notes: %v", notes)
	}
}

// TestTrajectoryToleratesOldFormatEntries pins the schema-evolution
// contract: a prior BENCH_<rev>.json written before the profile,
// costs and lineage blocks existed (none of those keys at all) must
// still load and compare cleanly against a current entry that carries
// them — the new blocks are informational-only for such pairs, never
// an error. So must an entry whose profile block still carries the
// retired cache-ledger keys (timeSavedNS, reusedPanes, ledgerOK).
func TestTrajectoryToleratesOldFormatEntries(t *testing.T) {
	dir := t.TempDir()
	oldJSON := `{
		"tool": "redoop-bench",
		"rev": "ancient",
		"config": {"workers": 10},
		"figures": [{
			"name": "Figure 6", "query": "q1",
			"panels": [{"overlap": 0.9, "series": [{
				"system": "Redoop", "makespanNS": 1000, "meanSteadyNS": 100
			}]}]
		}],
		"health": [{"query": "q1", "status": "OK"}]
	}`
	prior := filepath.Join(dir, "BENCH_ancient.json")
	if err := os.WriteFile(prior, []byte(oldJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	old, err := readSummary(prior)
	if err != nil {
		t.Fatalf("old-format entry failed to load: %v", err)
	}
	if old.Profile != nil || old.Costs != nil || old.Lineage != nil {
		t.Fatalf("absent blocks decoded non-nil: profile=%v costs=%v lineage=%v", old.Profile, old.Costs, old.Lineage)
	}

	cur := mkSummary("modern", 1000, 100)
	cur.Profile = &profileJSON{CritPathNS: 1200, CritPathOK: true}
	cur.Costs = &costsJSON{ConservationOK: true, Queries: []costQueryJSON{{Query: "q1", TotalComputeNS: 900}}}
	cur.Lineage = &lineageJSON{Nodes: 100, Edges: 200, DistinctFingerprints: 1}

	// End-to-end through runTrajectory: the comparison must neither
	// error nor let the schema gap masquerade as a regression.
	time.Sleep(10 * time.Millisecond)
	var buf bytes.Buffer
	hard, err := runTrajectory(&buf, dir, "modern", cur, 5, 15, true)
	if err != nil {
		t.Fatalf("comparison against old-format entry errored: %v", err)
	}
	if hard {
		t.Errorf("old-format gap reported as hard regression:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "ancient -> modern") {
		t.Errorf("report lacks rev labels:\n%s", buf.String())
	}

	// And the pure comparison helpers are nil-tolerant both ways.
	if notes := compareCosts(old, cur); len(notes) != 0 {
		t.Errorf("old entry without costs produced comparison notes: %v", notes)
	}
	if notes := compareProfile(old, cur); len(notes) != 0 {
		t.Errorf("old entry without profile produced comparison notes: %v", notes)
	}
	if notes := compareLineage(old, cur); len(notes) != 0 {
		t.Errorf("old entry without lineage produced comparison notes: %v", notes)
	}

	// An entry with the old profile block: the retired keys are
	// ignored, critPathNS still compares, and the missing critPathOK
	// on the old side raises no violation.
	legacyJSON := `{
		"tool": "redoop-bench",
		"rev": "legacy",
		"config": {"workers": 10},
		"figures": [{
			"name": "Figure 6", "query": "q1",
			"panels": [{"overlap": 0.9, "series": [{
				"system": "Redoop", "makespanNS": 1000, "meanSteadyNS": 100
			}]}]
		}],
		"profile": {"critPathNS": 1000, "timeSavedNS": 500, "reusedPanes": 7, "ledgerOK": true,
			"queries": [{"query": "q1", "recurrences": 4, "critPathNS": 1000, "timeSavedNS": 500}]}
	}`
	legacyDir := t.TempDir()
	legacyPath := filepath.Join(legacyDir, "BENCH_legacy.json")
	if err := os.WriteFile(legacyPath, []byte(legacyJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	legacy, err := readSummary(legacyPath)
	if err != nil {
		t.Fatalf("old-profile entry failed to load: %v", err)
	}
	if legacy.Profile == nil || legacy.Profile.CritPathNS != 1000 || len(legacy.Profile.Queries) != 1 {
		t.Fatalf("old profile block decoded as %+v", legacy.Profile)
	}
	notes := compareProfile(legacy, cur)
	if len(notes) != 1 || !strings.Contains(notes[0], "critical path") || !strings.Contains(notes[0], "+20.0%") {
		t.Errorf("old-profile comparison notes = %v, want one critical-path line", notes)
	}
	time.Sleep(10 * time.Millisecond)
	buf.Reset()
	hard, err = runTrajectory(&buf, legacyDir, "modern2", cur, 5, 15, true)
	if err != nil {
		t.Fatalf("comparison against old-profile entry errored: %v", err)
	}
	if hard || !strings.Contains(buf.String(), "legacy -> modern2") || strings.Contains(buf.String(), "VIOLATED") {
		t.Errorf("old-profile entry compared badly (hard=%v):\n%s", hard, buf.String())
	}
}

func TestRunTrajectoryEndToEnd(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer

	// First entry: nothing to compare against, no regression.
	hard, err := runTrajectory(&buf, dir, "rev1", mkSummary("", 1000, 100), 5, 15, true)
	if err != nil || hard {
		t.Fatalf("first entry: hard=%v err=%v", hard, err)
	}
	if !strings.Contains(buf.String(), "first entry") {
		t.Errorf("first entry report:\n%s", buf.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "BENCH_rev1.json")); err != nil {
		t.Fatalf("BENCH_rev1.json not written: %v", err)
	}

	// Second entry regresses hard.
	time.Sleep(10 * time.Millisecond)
	buf.Reset()
	hard, err = runTrajectory(&buf, dir, "rev2", mkSummary("", 2000, 200), 5, 15, true)
	if err != nil {
		t.Fatal(err)
	}
	if !hard {
		t.Errorf("2x slowdown not a hard regression:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "rev1 -> rev2") {
		t.Errorf("report lacks rev labels:\n%s", buf.String())
	}

	// Re-running the same revision compares against the previous
	// revision, not its own just-written file.
	time.Sleep(10 * time.Millisecond)
	buf.Reset()
	hard, err = runTrajectory(&buf, dir, "rev2", mkSummary("", 2000, 200), 5, 15, true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "rev1 -> rev2") {
		t.Errorf("same-rev rerun compared against itself:\n%s", buf.String())
	}
	if !hard {
		t.Errorf("same-rev rerun lost the hard verdict:\n%s", buf.String())
	}

	// A recovered third entry is clean against the regressed second.
	time.Sleep(10 * time.Millisecond)
	buf.Reset()
	hard, err = runTrajectory(&buf, dir, "rev3", mkSummary("", 1000, 100), 5, 15, true)
	if err != nil || hard {
		t.Errorf("recovery flagged: hard=%v err=%v\n%s", hard, err, buf.String())
	}
}

func TestCompareReuse(t *testing.T) {
	old := summaryJSON{Reuse: &reuseJSON{
		TotalMapTasksOff: 72, TotalMapTasksOn: 48, ExactHits: 7, SubsumHits: 3,
		Queries: []reuseQueryJSON{
			{Query: "fig6-a", OutputsEqual: true},
			{Query: "fig6-b", MapTasksOn: 0, OutputsEqual: true},
		},
	}}
	cur := summaryJSON{Reuse: &reuseJSON{
		TotalMapTasksOff: 72, TotalMapTasksOn: 60, ExactHits: 5, SubsumHits: 3,
		Queries: []reuseQueryJSON{
			{Query: "fig6-a", OutputsEqual: true},
			{Query: "fig6-b", MapTasksOn: 4, OutputsEqual: false},
		},
	}}
	notes := compareReuse(old, cur)
	joined := strings.Join(notes, "\n")
	for _, want := range []string{
		"fig6-b outputs DIVERGED",
		"sibling fig6-b ran 4 map tasks",
		"map tasks off/on 72/48 -> 72/60",
		"hits exact/subsume 7/3 -> 5/3",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("notes missing %q:\n%s", want, joined)
		}
	}
	// A healthy new entry against a pre-schema old entry says nothing.
	if notes := compareReuse(summaryJSON{}, old); len(notes) != 0 {
		t.Errorf("healthy entry vs pre-schema old produced notes: %v", notes)
	}
	// No reuse block on the new side: nothing to say.
	if notes := compareReuse(old, summaryJSON{}); notes != nil {
		t.Errorf("nil reuse produced notes: %v", notes)
	}
}
