package main

import (
	"errors"
	"fmt"
	"time"

	"redoop/internal/records"
	"redoop/internal/reuse"
	"redoop/internal/simtime"
)

// inputs is one generated stream: a batch per source per pane.
type inputs struct {
	batches [][][]records.Record // [pane][source]
	records int
}

func generate(ws *workloadSpec, seed int64) *inputs {
	in := &inputs{batches: make([][][]records.Record, ws.panes)}
	for p := range in.batches {
		start := int64(p) * int64(ws.paneUnit)
		for src, n := range ws.perPane {
			b := ws.gen(seed, src, start, start+int64(ws.paneUnit), n)
			in.batches[p] = append(in.batches[p], b)
			in.records += len(b)
		}
	}
	return in
}

// mrTotals sums the mapreduce counters of RecurrenceResult.Stats.
type mrTotals struct {
	MapTasks, ReduceTasks, FailedAttempts    int
	BytesRead, BytesReadLocal, BytesShuffled int64
	BytesCacheRead, BytesOutput              int64
	MapTime, ShuffleTime, ReduceTime         simtime.Duration
}

// roundStats is what one round — a fresh system driven over the whole
// stream — measured. Latency, cost and count figures cover the warm
// steps only: a step is cold until every query has finished its first
// window, and cold steps count as set-up.
type roundStats struct {
	build, cold cost // system construction; cold-step ingest and recurrences

	// latencies are the CPU ms of each warm step's recurrences, run
	// back to back; wallLatencies the same steps in wall ms.
	latencies     []float64
	wallLatencies []float64
	ingestUS      []float64 // CPU µs per warm ingest call
	warmRecords   int
	ingest, run   cost
	coreRun       bool // recurrences ran on the Redoop engine
	virt          []float64

	newPanes, reusedPanes, newPairs, reusedPairs, recoveries int
	mr                                                       mrTotals
	siblingMapTasks                                          int

	// End-of-round state of the layers attached to the system.
	evictions       int
	cachedBytes     int64
	reuse           reuse.Stats
	acctHits        int
	savedNS         int64
	conservationErr error
	linNodes        int
	linRebuilds     int
	eventsDropped   uint64

	attempted, failed int
	err               error // first recurrence failure
	checkErr          error // self-check failure
}

// warmCPU and warmWall are the time spent inside system calls in warm
// steps.
func (st *roundStats) warmCPU() float64  { return (st.ingest.cpu + st.run.cpu).Seconds() }
func (st *roundStats) warmWall() float64 { return (st.ingest.wall + st.run.wall).Seconds() }

// driver runs rounds of one workload over one generated stream.
type driver struct {
	ws      *workloadSpec
	in      *inputs
	seed    int64
	workers int
	m       *meter
	ref     *reference
	// anchor holds each recurrence's modelled response time from the
	// first round driven in the run; every later round, at any worker
	// count, must reproduce it. Drivers of one run share it.
	anchor *[][]simtime.Duration
}

func (d *driver) streamEnd() int64 { return int64(d.ws.panes) * int64(d.ws.paneUnit) }

// nextGroup returns the runners due at the earliest pending window
// close the stream covers, in runner order — the global window-close
// order experiments.RunCrossQueryReuse drives shared runtimes in.
func (d *driver) nextGroup(sys *system) ([]int, int64) {
	best := int64(-1)
	for _, rn := range sys.runners {
		if c := rn.close(rn.next()); c <= d.streamEnd() && (best < 0 || c < best) {
			best = c
		}
	}
	if best < 0 {
		return nil, 0
	}
	var group []int
	for i, rn := range sys.runners {
		if rn.close(rn.next()) == best {
			group = append(group, i)
		}
	}
	return group, best
}

// round builds a fresh system and drives the whole stream through it.
// With oracle set it checks every recurrence with oracle.Check and
// records the reference digests instead of comparing against them.
func (d *driver) round(oracle bool) (*roundStats, *system, error) {
	st := &roundStats{}
	tr := d.m.tr
	var sys *system
	c, err := d.m.call("bench.build", 0, -1, func() error {
		var err error
		sys, err = d.ws.build(d.seed, d.workers, oracle)
		return err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("%s: build: %w", d.ws.name, err)
	}
	st.build = c
	if oracle {
		d.ref = &reference{digests: make([][]digest, len(sys.runners))}
		limit := -1
		for _, rn := range sys.runners {
			n := 0
			for rn.close(n) <= d.streamEnd() {
				n++
			}
			if limit < 0 || n < limit {
				limit = n
			}
		}
		for range sys.runners {
			d.ref.chains = append(d.ref.chains, &chainDigest{limit: limit})
		}
	}
	record := *d.anchor == nil && !oracle
	if record {
		*d.anchor = make([][]simtime.Duration, len(sys.runners))
	}
	cold := true
	for {
		group, closeAt := d.nextGroup(sys)
		if group == nil {
			break
		}
		step := tr.begin("bench.step", 0, sys.runners[group[0]].next())
		var in, run cost
		recs := 0
		for ; int64(sys.fed)*int64(d.ws.paneUnit) < closeAt; sys.fed++ {
			for src, batch := range d.in.batches[sys.fed] {
				c, err := d.m.call(sys.ingestLayer, step, -1, func() error { return sys.ingest(src, batch) })
				if err != nil {
					st.attempted += len(group)
					st.failed += len(group)
					st.err = fmt.Errorf("%s ingest: %w", d.ws.name, err)
					tr.end(step)
					return st, sys, nil
				}
				in.add(c)
				recs += len(batch)
				if !cold {
					st.ingestUS = append(st.ingestUS, float64(c.cpu.Nanoseconds())/1e3)
				}
			}
		}
		outs := make([]outcome, len(group))
		for k, i := range group {
			rn := sys.runners[i]
			rec := rn.next()
			c, err := d.m.call(rn.layer(), step, rec, func() error {
				var err error
				outs[k], err = rn.run()
				return err
			})
			st.attempted++
			if err != nil {
				st.failed++
				st.err = fmt.Errorf("%s window %d: %w", rn.name, rec+1, err)
				tr.end(step)
				return st, sys, nil
			}
			run.add(c)
			st.coreRun = rn.eng != nil
		}
		if cold {
			st.cold.add(in)
			st.cold.add(run)
		} else {
			st.latencies = append(st.latencies, float64(run.cpu.Nanoseconds())/1e6)
			st.wallLatencies = append(st.wallLatencies, float64(run.wall.Nanoseconds())/1e6)
			st.warmRecords += recs
			st.ingest.add(in)
			st.run.add(run)
		}
		verify := tr.begin("bench.verify", step, -1)
		for k, i := range group {
			if err := d.settle(st, sys, i, outs[k], cold, oracle, record); err != nil {
				tr.end(verify)
				tr.end(step)
				return nil, nil, err
			}
		}
		tr.end(verify)
		tr.end(step)
		if cold {
			cold = false
			for _, rn := range sys.runners {
				if rn.next() == 0 {
					cold = true
				}
			}
		}
	}
	d.collect(st, sys)
	if !oracle {
		st.checkErr = d.ws.check(st)
	}
	return st, sys, nil
}

// settle checks one recurrence's outcome and folds its counts into st.
// A mismatch counts the recurrence as failed; only a failing oracle
// verdict, which means the reference itself is wrong, is an error.
func (d *driver) settle(st *roundStats, sys *system, q int, o outcome, cold, oracle, record bool) error {
	rn := sys.runners[q]
	if oracle {
		c, err := d.m.call("oracle.Check", 0, o.rec, func() error { return rn.ora.Check(o.core).Err() })
		d.ref.oracle.add(c)
		if err != nil {
			return fmt.Errorf("%s: reference pass: %w", d.ws.name, err)
		}
		d.ref.digests[q] = append(d.ref.digests[q], digestOf(o.output))
		d.ref.chains[q].add(o.output)
	} else {
		want, ok := d.ref.lookup(q, o.rec)
		anchor := *d.anchor
		if record {
			anchor[q] = append(anchor[q], o.virt)
		}
		switch {
		case !ok || digestOf(o.output) != want:
			st.failed++
		case o.rec >= len(anchor[q]) || anchor[q][o.rec] != o.virt:
			st.failed++
		}
	}
	if cold {
		return nil
	}
	if q == 1 {
		st.siblingMapTasks += o.stats.MapTasks
	}
	st.virt = append(st.virt, float64(o.virt)/float64(time.Millisecond))
	s := o.stats
	t := &st.mr
	t.MapTasks += s.MapTasks
	t.ReduceTasks += s.ReduceTasks
	t.FailedAttempts += s.FailedAttempts
	t.BytesRead += s.BytesRead
	t.BytesReadLocal += s.BytesReadLocal
	t.BytesShuffled += s.BytesShuffled
	t.BytesCacheRead += s.BytesCacheRead
	t.BytesOutput += s.BytesOutput
	t.MapTime += s.MapTime
	t.ShuffleTime += s.ShuffleTime
	t.ReduceTime += s.ReduceTime
	if r := o.core; r != nil {
		st.newPanes += r.NewPanes
		st.reusedPanes += r.ReusedPanes
		st.newPairs += r.NewPairs
		st.reusedPairs += r.ReusedPairs
		st.recoveries += r.CacheRecoveries
	}
	return nil
}

// collect reads the end-of-round state of the system's layers.
func (d *driver) collect(st *roundStats, sys *system) {
	var busy int64
	for _, n := range sys.mr.Cluster.Nodes() {
		busy += int64(n.Load())
		if sys.ctrl != nil {
			if reg := sys.ctrl.Registry(n.ID); reg != nil {
				st.cachedBytes += reg.CachedBytes()
			}
		}
	}
	for _, rn := range sys.runners {
		if rn.eng != nil {
			st.evictions += len(rn.eng.EvictionLog())
		}
	}
	st.reuse = sys.idx.Stats()
	for _, qc := range sys.acct.Snapshot() {
		st.acctHits += qc.CacheHits
		st.savedNS += qc.SavedNS
	}
	st.conservationErr = sys.acct.CheckConservation(busy)
	ls := sys.lin.Stats()
	st.linNodes, st.linRebuilds = ls.Nodes, ls.Rebuilds
	if sys.obs != nil && sys.obs.Events != nil {
		st.eventsDropped = sys.obs.Events.Dropped()
	}
}

// reference runs the oracle-verified pass that every later recurrence
// is compared against.
func (d *driver) reference() error {
	st, _, err := d.round(true)
	if err != nil {
		return err
	}
	if st.err != nil {
		return fmt.Errorf("reference pass: %w", st.err)
	}
	if d.ws.crossCheck != nil {
		return d.ws.crossCheck(d.ws, d.seed, d.ref)
	}
	return nil
}

// phase drives whole rounds until budget has elapsed and at least
// minRounds have run. It returns every round and the last system, still
// live so its retained state can be measured.
func (d *driver) phase(budget time.Duration, minRounds int) ([]*roundStats, *system, error) {
	var rounds []*roundStats
	var last *system
	start := time.Now()
	for len(rounds) < minRounds || time.Since(start) < budget {
		if d.m.tr != nil {
			d.m.tr.round = len(rounds)
		}
		last = nil // let the previous round's system go before building the next
		st, sys, err := d.round(false)
		if err != nil {
			return nil, nil, err
		}
		rounds = append(rounds, st)
		last = sys
		if st.err != nil && len(rounds) >= minRounds {
			break
		}
	}
	return rounds, last, nil
}

// tally sums attempted and failed recurrences over rounds; a failed
// self-check in any round fails every recurrence of the run.
func tally(rounds []*roundStats) (attempted, failed int, err error) {
	var errs []error
	selfCheckFailed := false
	for _, st := range rounds {
		attempted += st.attempted
		failed += st.failed
		if st.err != nil {
			errs = append(errs, st.err)
		}
		if st.checkErr != nil {
			selfCheckFailed = true
			errs = append(errs, st.checkErr)
		}
	}
	if selfCheckFailed {
		failed = attempted
	}
	return attempted, failed, errors.Join(errs...)
}
