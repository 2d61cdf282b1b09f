package oracle

import (
	"fmt"

	"redoop/internal/core"
	"redoop/internal/window"
)

// checkInvariants appends every structural-invariant failure of the
// just-completed recurrence to v.Violations. All checks are scoped to
// state the recurrence itself is responsible for — the window it just
// served — because caches outside the window may legitimately carry
// stale CacheAvailable bits (§5's loss discovery is lazy, at lookup
// time).
func (o *Oracle) checkInvariants(res *core.RecurrenceResult, v *Verdict) {
	o.drainTransitions(v)
	o.checkCoverage(res, v)
	o.checkMatrixAndCaches(res, v)
	o.checkRegistries(v)
	o.checkHeaders(res, v)
	o.checkAccounting(v)
	o.checkLineage(v)
}

// drainTransitions moves illegal ready transitions recorded by the
// controller hook since the previous Check into the verdict.
func (o *Oracle) drainTransitions(v *Verdict) {
	o.mu.Lock()
	defer o.mu.Unlock()
	v.Violations = append(v.Violations, o.illegal...)
	o.illegal = nil
}

// windowRanges returns each source's inclusive pane range for r.
func (o *Oracle) windowRanges(r int) (los, his []window.PaneID) {
	for _, f := range o.frames {
		lo, hi := f.WindowRange(r)
		los, his = append(los, lo), append(his, hi)
	}
	return
}

// checkCoverage asserts every pane of the window was consumed exactly
// once: the engine's new/reused accounting must add up to the window's
// pane count per source, and for joins the pane-tuple accounting to
// the product of per-source counts.
func (o *Oracle) checkCoverage(res *core.RecurrenceResult, v *Verdict) {
	los, his := o.windowRanges(res.Recurrence)
	wantPanes := 0
	wantTuples := 1
	for d := range o.frames {
		n := int(his[d] - los[d] + 1)
		wantPanes += n
		wantTuples *= n
	}
	if got := res.NewPanes + res.ReusedPanes; got != wantPanes {
		v.Violations = append(v.Violations, fmt.Sprintf(
			"coverage: window has %d panes but engine accounted %d (new %d + reused %d)",
			wantPanes, got, res.NewPanes, res.ReusedPanes))
	}
	if len(o.frames) > 1 {
		if got := res.NewPairs + res.ReusedPairs; got != wantTuples {
			v.Violations = append(v.Violations, fmt.Sprintf(
				"coverage: window has %d pane tuples but engine accounted %d (new %d + reused %d)",
				wantTuples, got, res.NewPairs, res.ReusedPairs))
		}
	}
}

// checkMatrixAndCaches asserts done-mask consistency with materialized
// state: every in-window pane (and tuple) is marked done in the
// StatusMatrix, and the reduce-side caches the window's finalization
// read this recurrence — aggregation pane routs, join pane rins and
// tuple routs — are registered CacheAvailable with bytes resident.
// Chaos injects only between recurrences, so at Check time nothing may
// have disturbed them yet; a CacheAvailable signature without resident
// bytes here means the engine published a result it could not have
// read.
func (o *Oracle) checkMatrixAndCaches(res *core.RecurrenceResult, v *Verdict) {
	r := res.Recurrence
	los, his := o.windowRanges(r)
	// Panes below the next window's low edge expired at the end of
	// this recurrence — the engine rightly purged their caches during
	// retirement — so cache-residence checks cover only the panes
	// surviving into window r+1.
	nextLos, _ := o.windowRanges(r + 1)
	matrix := o.eng.Matrix()
	ctrl := o.eng.Controller()

	requireCache := func(pid string, typ core.CacheType, what string) {
		sig, ok := ctrl.Lookup(pid, typ)
		if !ok {
			v.Violations = append(v.Violations, fmt.Sprintf("%s: no signature for %s", what, pid))
			return
		}
		if sig.Ready != core.CacheAvailable {
			v.Violations = append(v.Violations, fmt.Sprintf(
				"%s: %s is %s, want CacheAvailable after the recurrence", what, pid, sig.Ready))
			return
		}
		reg := ctrl.Registry(sig.NID)
		if reg == nil || !reg.Has(pid, typ) {
			v.Violations = append(v.Violations, fmt.Sprintf(
				"%s: %s registered CacheAvailable on node %d but bytes are not resident", what, pid, sig.NID))
		}
	}

	if len(o.frames) == 1 {
		for p := los[0]; p <= his[0]; p++ {
			if done, err := matrix.Done(p); err != nil || !done {
				v.Violations = append(v.Violations, fmt.Sprintf(
					"matrix: in-window pane %d not marked done (err %v)", int64(p), err))
			}
			if p < nextLos[0] {
				continue
			}
			for part := 0; part < o.q.NumReducers; part++ {
				requireCache(o.q.ReduceOutputPanePID(p, part), core.ReduceOutput, "agg rout")
			}
		}
		return
	}

	// Join: per-source pane rins, then the full tuple grid.
	for d, f := range o.frames {
		for p := los[d]; p <= his[d]; p++ {
			if p < nextLos[d] {
				continue
			}
			for part := 0; part < o.q.NumReducers; part++ {
				requireCache(o.q.ReduceInputPID(d, f.Pane, p, part), core.ReduceInput, "join rin")
			}
		}
	}
	tuple := make([]window.PaneID, len(o.frames))
	var walk func(dim int)
	walk = func(dim int) {
		if dim == len(o.frames) {
			coords := append([]window.PaneID(nil), tuple...)
			if done, err := matrix.Done(coords...); err != nil || !done {
				v.Violations = append(v.Violations, fmt.Sprintf(
					"matrix: in-window tuple %v not marked done (err %v)", coords, err))
			}
			// A tuple's rout survives only while every coordinate
			// survives (its lifespan ends with its first expired pane).
			for dim, p := range coords {
				if p < nextLos[dim] {
					return
				}
			}
			for part := 0; part < o.q.NumReducers; part++ {
				requireCache(o.q.ReduceOutputTuplePID(coords, part), core.ReduceOutput, "join rout")
			}
			return
		}
		for p := los[dim]; p <= his[dim]; p++ {
			tuple[dim] = p
			walk(dim + 1)
		}
	}
	walk(0)
}

// checkAccounting asserts the cost ledger's conservation invariants
// when one is attached (see internal/account): the query's slot-held
// compute cannot exceed the cluster's total accrued busy time (every
// metered nanosecond was also charged to a node via AddLoad), no cache
// load netted against a hit may exceed the recompute the hit credited
// (a reuse never costs more than it saved), the ledger's residency
// counters must reconcile (registered = expired + open), and every
// residency still accruing byte·seconds must map to a
// live CacheAvailable controller signature of the same size — occupancy
// may only be charged for bytes the scheduler can actually find.
// Chaos-dropped caches are discovered lazily (§5) at the next lookup,
// which closes their residencies before this runs, so at Check time the
// ledger and controller must agree.
func (o *Oracle) checkAccounting(v *Verdict) {
	acct := o.eng.Account()
	if acct == nil {
		return
	}
	name := o.eng.AccountName()
	var busy int64
	for _, n := range o.eng.MR().Cluster.Nodes() {
		busy += int64(n.Load())
	}
	if err := acct.CheckConservation(busy, name); err != nil {
		v.Violations = append(v.Violations, fmt.Sprintf("accounting: %v", err))
	}
	ctrl := o.eng.Controller()
	for _, r := range acct.OpenResidencies() {
		if r.Query != name {
			continue
		}
		sig, ok := ctrl.Lookup(r.PID, core.CacheType(r.Type))
		if !ok {
			v.Violations = append(v.Violations, fmt.Sprintf(
				"accounting: open residency %s (type %d) has no controller signature", r.PID, r.Type))
			continue
		}
		if sig.Ready != core.CacheAvailable {
			v.Violations = append(v.Violations, fmt.Sprintf(
				"accounting: open residency %s (type %d) is %s, want CacheAvailable", r.PID, r.Type, sig.Ready))
			continue
		}
		if sig.Bytes != r.Bytes {
			v.Violations = append(v.Violations, fmt.Sprintf(
				"accounting: open residency %s (type %d) accrues %d bytes but the controller records %d",
				r.PID, r.Type, r.Bytes, sig.Bytes))
		}
	}
}

// checkRegistries asserts node-registry hygiene: after the managers'
// purge tick no entry may be both expired and still resident, and no
// unexpired resident entry may lack its controller signature (orphaned
// bytes that nothing can ever find or purge).
func (o *Oracle) checkRegistries(v *Verdict) {
	ctrl := o.eng.Controller()
	for _, id := range o.eng.MR().Cluster.NodeIDs() {
		reg := ctrl.Registry(id)
		if reg == nil {
			continue
		}
		for _, e := range reg.Entries() {
			resident := reg.Has(e.PID, e.Type)
			if e.Expired && resident {
				v.Violations = append(v.Violations, fmt.Sprintf(
					"registry node %d: expired entry %s (%s) still resident after purge tick", id, e.PID, e.Type))
			}
			if !e.Expired && resident {
				if _, ok := ctrl.Lookup(e.PID, e.Type); !ok {
					v.Violations = append(v.Violations, fmt.Sprintf(
						"registry node %d: resident entry %s (%s) has no controller signature (orphaned bytes)", id, e.PID, e.Type))
				}
			}
		}
	}
}

// checkHeaders cross-checks shared multi-pane file headers (§3.2)
// against the segments the engine charged to each in-window pane: the
// header must parse, tile its body exactly, and attribute the pane to
// the same byte range the Packer reported. Paths a chaos schedule
// deliberately damaged are skipped.
func (o *Oracle) checkHeaders(res *core.RecurrenceResult, v *Verdict) {
	o.mu.Lock()
	excluded := make(map[string]bool, len(o.excluded))
	for p := range o.excluded {
		excluded[p] = true
	}
	o.mu.Unlock()
	d := o.eng.MR().DFS
	los, his := o.windowRanges(res.Recurrence)
	// Expired panes' files were dropped at retirement; only surviving
	// panes still have bytes to cross-check.
	nextLos, _ := o.windowRanges(res.Recurrence + 1)
	for src := range o.frames {
		for p := nextLos[src]; p <= his[src]; p++ {
			if p < los[src] {
				continue
			}
			inputs, ok := o.eng.PaneInputs(src, p)
			if !ok {
				continue
			}
			for _, pi := range inputs {
				if pi.HeaderBytes == 0 || excluded[pi.Input.Path] {
					continue
				}
				path := pi.Input.Path
				hdr, err := d.Read(path + ".hdr")
				if err != nil {
					v.Violations = append(v.Violations, fmt.Sprintf(
						"header: pane %d segment %s has no readable header: %v", int64(p), path, err))
					continue
				}
				size, err := d.Size(path)
				if err != nil {
					v.Violations = append(v.Violations, fmt.Sprintf(
						"header: pane %d shared file %s unreadable: %v", int64(p), path, err))
					continue
				}
				entries, err := core.ParsePaneHeader(hdr, size)
				if err != nil {
					v.Violations = append(v.Violations, fmt.Sprintf("header: %s: %v", path, err))
					continue
				}
				found := false
				for _, e := range entries {
					if e.Pane == int64(p) {
						found = true
						if e.Offset != pi.Input.Offset || e.Length != pi.Input.Length {
							v.Violations = append(v.Violations, fmt.Sprintf(
								"header: %s attributes pane %d to [%d,+%d) but engine read [%d,+%d)",
								path, int64(p), e.Offset, e.Length, pi.Input.Offset, pi.Input.Length))
						}
					}
				}
				if !found {
					v.Violations = append(v.Violations, fmt.Sprintf(
						"header: %s has no entry for pane %d the engine read from it", path, int64(p)))
				}
			}
		}
	}
}
