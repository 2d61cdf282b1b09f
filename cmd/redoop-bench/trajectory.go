package main

// Trajectory mode: every invocation with -bench-dir writes one
// BENCH_<rev>.json into the directory and compares it against the
// newest prior entry, printing a per-series regression report. The
// directory accumulates one file per revision — a measured trajectory
// of the implementation over time, read against the paper's Figures
// 6–9 (see EXPERIMENTS.md).

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchFileFor names the trajectory entry of one revision.
func benchFileFor(dir, rev string) string {
	return filepath.Join(dir, "BENCH_"+sanitizeRev(rev)+".json")
}

// sanitizeRev keeps revision strings filesystem-safe.
func sanitizeRev(rev string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		}
		return '-'
	}, rev)
}

// findPriorBench returns the newest BENCH_*.json in dir by
// modification time, excluding the given path (the entry being
// written). Empty string when there is no prior entry.
func findPriorBench(dir, exclude string) (string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	type cand struct {
		path string
		mod  int64
	}
	var cands []cand
	for _, m := range matches {
		if sameFile(m, exclude) {
			continue
		}
		fi, err := os.Stat(m)
		if err != nil {
			continue
		}
		cands = append(cands, cand{m, fi.ModTime().UnixNano()})
	}
	if len(cands) == 0 {
		return "", nil
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].mod != cands[j].mod {
			return cands[i].mod > cands[j].mod
		}
		return cands[i].path > cands[j].path // stable tie-break
	})
	return cands[0].path, nil
}

func sameFile(a, b string) bool {
	if a == b {
		return true
	}
	aa, errA := filepath.Abs(a)
	bb, errB := filepath.Abs(b)
	return errA == nil && errB == nil && aa == bb
}

func readSummary(path string) (summaryJSON, error) {
	var sum summaryJSON
	data, err := os.ReadFile(path)
	if err != nil {
		return sum, err
	}
	if err := json.Unmarshal(data, &sum); err != nil {
		return sum, fmt.Errorf("%s: %w", path, err)
	}
	return sum, nil
}

// seriesKey addresses one measured series across summaries.
type seriesKey struct {
	Figure  string
	Overlap float64
	System  string
}

func (k seriesKey) String() string {
	return fmt.Sprintf("%s/overlap=%.2f/%s", k.Figure, k.Overlap, k.System)
}

// deltaRow is one metric's old-vs-new comparison.
type deltaRow struct {
	Key    seriesKey
	Metric string // "makespan" or "meanSteady"
	OldNS  int64
	NewNS  int64
	Pct    float64 // signed; positive = slower (regression)
}

// compareSummaries pairs up every series present in both summaries and
// computes the signed percentage change of its makespan and
// steady-state mean. Series present in only one side are skipped —
// trajectory entries may cover different figure subsets.
func compareSummaries(old, cur summaryJSON) []deltaRow {
	index := func(sum summaryJSON) map[seriesKey]seriesJSON {
		out := make(map[seriesKey]seriesJSON)
		for _, f := range sum.Figures {
			for _, p := range f.Panels {
				for _, s := range p.Series {
					out[seriesKey{f.Name, p.Overlap, s.System}] = s
				}
			}
		}
		return out
	}
	oldIdx := index(old)
	var rows []deltaRow
	for _, f := range cur.Figures {
		for _, p := range f.Panels {
			for _, s := range p.Series {
				k := seriesKey{f.Name, p.Overlap, s.System}
				o, ok := oldIdx[k]
				if !ok {
					continue
				}
				if o.MakespanNS > 0 {
					rows = append(rows, deltaRow{
						Key: k, Metric: "makespan",
						OldNS: o.MakespanNS, NewNS: s.MakespanNS,
						Pct: pctChange(o.MakespanNS, s.MakespanNS),
					})
				}
				if o.MeanSteadyNS > 0 {
					rows = append(rows, deltaRow{
						Key: k, Metric: "meanSteady",
						OldNS: o.MeanSteadyNS, NewNS: s.MeanSteadyNS,
						Pct: pctChange(o.MeanSteadyNS, s.MeanSteadyNS),
					})
				}
			}
		}
	}
	return rows
}

func pctChange(old, cur int64) float64 {
	return 100 * float64(cur-old) / float64(old)
}

// healthDeltas lines up per-query health aggregates between two
// summaries; a growth in deadline misses or adaptivity misses is
// reported alongside the timing rows.
type healthDelta struct {
	Query                string
	MissesOld, MissesNew int
	AnomOld, AnomNew     int
	AMissOld, AMissNew   int
	StatusOld, StatusNew string
}

func compareHealth(old, cur summaryJSON) []healthDelta {
	oldIdx := make(map[string]queryHealthJSON)
	for _, h := range old.Health {
		oldIdx[h.Query] = h
	}
	var out []healthDelta
	for _, h := range cur.Health {
		o, ok := oldIdx[h.Query]
		if !ok {
			continue
		}
		out = append(out, healthDelta{
			Query:     h.Query,
			MissesOld: o.DeadlineMisses, MissesNew: h.DeadlineMisses,
			AnomOld: o.Anomalies, AnomNew: h.Anomalies,
			AMissOld: o.AdaptivityMisses, AMissNew: h.AdaptivityMisses,
			StatusOld: o.Status, StatusNew: h.Status,
		})
	}
	return out
}

// compareProfile reports movements in the profiler aggregates between
// two trajectory entries. Informational only — critical-path length
// scales with the workload each revision chose to run, so it never
// gates; a critical path that fails to tile its recurrence in the new
// entry is still surfaced loudly so the line is hard to miss in CI
// logs. Cache savings are compared by compareCosts.
func compareProfile(old, cur summaryJSON) []string {
	if cur.Profile == nil {
		return nil
	}
	var out []string
	if !cur.Profile.CritPathOK {
		out = append(out, "critical-path tiling invariant VIOLATED")
	}
	if old.Profile == nil {
		return out
	}
	if old.Profile.CritPathNS > 0 {
		out = append(out, fmt.Sprintf("critical path %s -> %s  %+6.1f%%",
			fmtNS(old.Profile.CritPathNS), fmtNS(cur.Profile.CritPathNS),
			pctChange(old.Profile.CritPathNS, cur.Profile.CritPathNS)))
	}
	if old.Profile.SerialFraction != nil && cur.Profile.SerialFraction != nil {
		out = append(out, fmt.Sprintf("serial fraction %.3f -> %.3f",
			*old.Profile.SerialFraction, *cur.Profile.SerialFraction))
	}
	return out
}

// compareCosts reports movements in the cost-ledger aggregates between
// two trajectory entries. Informational only, with one exception: a
// conservation violation in the new entry is surfaced loudly. Entries
// written before the costs block existed simply lack the key — the
// comparison treats a missing old block as "nothing to compare
// against" rather than an error, so trajectories spanning the schema
// change keep working.
func compareCosts(old, cur summaryJSON) []string {
	if cur.Costs == nil {
		return nil
	}
	var out []string
	if !cur.Costs.ConservationOK {
		out = append(out, "resource-accounting conservation VIOLATED (slot compute exceeds cluster busy time)")
	}
	if old.Costs == nil {
		return out
	}
	oldIdx := make(map[string]costQueryJSON)
	for _, q := range old.Costs.Queries {
		oldIdx[q.Query] = q
	}
	for _, q := range cur.Costs.Queries {
		o, ok := oldIdx[q.Query]
		if !ok {
			continue
		}
		if o.TotalComputeNS > 0 {
			out = append(out, fmt.Sprintf("%s compute %s -> %s  %+6.1f%%",
				q.Query, fmtNS(o.TotalComputeNS), fmtNS(q.TotalComputeNS),
				pctChange(o.TotalComputeNS, q.TotalComputeNS)))
		}
		if o.SavedNS > 0 && q.SavedNS != o.SavedNS {
			out = append(out, fmt.Sprintf("%s cache saving %s -> %s  %+6.1f%%",
				q.Query, fmtNS(o.SavedNS), fmtNS(q.SavedNS),
				pctChange(o.SavedNS, q.SavedNS)))
		}
	}
	return out
}

// compareLineage reports movements in the provenance-store aggregates
// between two trajectory entries. Informational only — node and edge
// counts scale with the workload — but a rebuild count appearing on a
// clean run is called out, since rebuilds mean the recovery ladder
// fired. Entries written before the lineage block existed simply lack
// the key; a missing old block is "nothing to compare against", so
// trajectories spanning the schema change keep working.
func compareLineage(old, cur summaryJSON) []string {
	if cur.Lineage == nil {
		return nil
	}
	var out []string
	if cur.Lineage.Rebuilds > 0 && cur.Chaos == nil {
		out = append(out, fmt.Sprintf("%d cache rebuilds on a clean run (recovery fired without injected faults)", cur.Lineage.Rebuilds))
	}
	if old.Lineage == nil {
		return out
	}
	if old.Lineage.Nodes != cur.Lineage.Nodes || old.Lineage.Edges != cur.Lineage.Edges {
		out = append(out, fmt.Sprintf("derivations %d -> %d, edges %d -> %d",
			old.Lineage.Nodes, cur.Lineage.Nodes, old.Lineage.Edges, cur.Lineage.Edges))
	}
	if old.Lineage.DistinctFingerprints != cur.Lineage.DistinctFingerprints {
		out = append(out, fmt.Sprintf("distinct plan fingerprints %d -> %d",
			old.Lineage.DistinctFingerprints, cur.Lineage.DistinctFingerprints))
	}
	if old.Lineage.Rebuilds != cur.Lineage.Rebuilds {
		out = append(out, fmt.Sprintf("rebuilds %d -> %d", old.Lineage.Rebuilds, cur.Lineage.Rebuilds))
	}
	return out
}

// compareReuse reports movements in the cross-query reuse block
// between two trajectory entries. A broken invariant in the new entry
// — off/on outputs that diverged, or the identical-geometry sibling
// computing its own map tasks — is surfaced loudly; map-task and
// hit-count movements are informational. Entries written before the
// block existed lack the key; a missing old block is "nothing to
// compare against", so trajectories spanning the schema change keep
// working.
func compareReuse(old, cur summaryJSON) []string {
	if cur.Reuse == nil {
		return nil
	}
	var out []string
	for _, q := range cur.Reuse.Queries {
		if !q.OutputsEqual {
			out = append(out, fmt.Sprintf("%s outputs DIVERGED between reuse off and on", q.Query))
		}
	}
	if len(cur.Reuse.Queries) > 1 && cur.Reuse.Queries[1].MapTasksOn != 0 {
		out = append(out, fmt.Sprintf("sibling %s ran %d map tasks with reuse on (want 0)",
			cur.Reuse.Queries[1].Query, cur.Reuse.Queries[1].MapTasksOn))
	}
	if old.Reuse == nil {
		return out
	}
	if old.Reuse.TotalMapTasksOn != cur.Reuse.TotalMapTasksOn ||
		old.Reuse.TotalMapTasksOff != cur.Reuse.TotalMapTasksOff {
		out = append(out, fmt.Sprintf("map tasks off/on %d/%d -> %d/%d",
			old.Reuse.TotalMapTasksOff, old.Reuse.TotalMapTasksOn,
			cur.Reuse.TotalMapTasksOff, cur.Reuse.TotalMapTasksOn))
	}
	if old.Reuse.ExactHits != cur.Reuse.ExactHits || old.Reuse.SubsumHits != cur.Reuse.SubsumHits {
		out = append(out, fmt.Sprintf("index hits exact/subsume %d/%d -> %d/%d",
			old.Reuse.ExactHits, old.Reuse.SubsumHits, cur.Reuse.ExactHits, cur.Reuse.SubsumHits))
	}
	return out
}

// regressReport writes the comparison and returns whether any timing
// row regressed past the soft or the hard threshold (in percent).
func regressReport(w io.Writer, oldRev, curRev string, rows []deltaRow, hrows []healthDelta, pnotes, cnotes, lnotes, rnotes []string, softPct, hardPct float64) (soft, hard bool) {
	fmt.Fprintf(w, "\ntrajectory: %s -> %s\n", revLabel(oldRev), revLabel(curRev))
	if len(rows) == 0 {
		fmt.Fprintf(w, "  no comparable series (different figure subsets?)\n")
		return false, false
	}
	for _, r := range rows {
		mark := ""
		switch {
		case r.Pct > hardPct:
			mark = "  << HARD REGRESSION"
			hard = true
		case r.Pct > softPct:
			mark = "  << regression"
			soft = true
		case r.Pct < -softPct:
			mark = "  (improved)"
		}
		fmt.Fprintf(w, "  %-40s %-10s %12s -> %12s  %+6.1f%%%s\n",
			r.Key, r.Metric, fmtNS(r.OldNS), fmtNS(r.NewNS), r.Pct, mark)
	}
	for _, h := range hrows {
		notes := []string{}
		if h.MissesNew > h.MissesOld {
			notes = append(notes, fmt.Sprintf("deadline misses %d -> %d", h.MissesOld, h.MissesNew))
		}
		if h.AnomNew > h.AnomOld {
			notes = append(notes, fmt.Sprintf("anomalies %d -> %d", h.AnomOld, h.AnomNew))
		}
		if h.AMissNew > h.AMissOld {
			notes = append(notes, fmt.Sprintf("adaptivity misses %d -> %d", h.AMissOld, h.AMissNew))
		}
		if h.StatusNew != h.StatusOld {
			notes = append(notes, fmt.Sprintf("status %s -> %s", h.StatusOld, h.StatusNew))
		}
		if len(notes) > 0 {
			fmt.Fprintf(w, "  health %-33s %s\n", h.Query+":", strings.Join(notes, "; "))
		}
	}
	for _, n := range pnotes {
		fmt.Fprintf(w, "  profile: %s\n", n)
	}
	for _, n := range cnotes {
		fmt.Fprintf(w, "  costs: %s\n", n)
	}
	for _, n := range lnotes {
		fmt.Fprintf(w, "  lineage: %s\n", n)
	}
	for _, n := range rnotes {
		fmt.Fprintf(w, "  reuse: %s\n", n)
	}
	switch {
	case hard:
		fmt.Fprintf(w, "  verdict: HARD regression (> %.0f%%) — failing\n", hardPct)
	case soft:
		fmt.Fprintf(w, "  verdict: soft regression (> %.0f%%) — warning only\n", softPct)
	default:
		fmt.Fprintf(w, "  verdict: no regression beyond %.0f%%\n", softPct)
	}
	return soft, hard
}

func revLabel(rev string) string {
	if rev == "" {
		return "(unknown rev)"
	}
	return rev
}

func fmtNS(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
