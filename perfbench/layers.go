package main

import (
	"time"
)

func (a runtimeCounters) sub(b runtimeCounters) runtimeCounters {
	return runtimeCounters{gcCPU: a.gcCPU - b.gcCPU, totalCPU: a.totalCPU - b.totalCPU, gcCycles: a.gcCycles - b.gcCycles}
}

// perRound returns the median over rounds of f.
func perRound(rounds []*roundStats, f func(*roundStats) float64) float64 {
	xs := make([]float64, len(rounds))
	for i, st := range rounds {
		xs[i] = f(st)
	}
	return median(xs)
}

// layerMetrics fills the per-layer metrics of a traced run. Host times
// are process CPU time, medians over the traced phase's rounds, except
// the wall.* figures, parallel.speedup and trace.coverage_frac; counts
// come from the first traced round, which every later round repeats
// exactly.
func (b *bench) layerMetrics(res *result, plain, traced, serial []*roundStats, cpu map[string]int64, rt runtimeCounters, coverage float64) {
	put := res.put
	var genS, genB []float64
	for _, c := range b.gen {
		genS = append(genS, c.cpu.Seconds())
		genB = append(genB, float64(c.bytes)/1e6)
	}
	put("workload.gen_s", median(genS))
	put("workload.gen_alloc_mb", median(genB))

	var recs int
	var ingest, run cost
	var ingestUS []float64
	for _, st := range traced {
		recs += st.warmRecords
		ingest.add(st.ingest)
		run.add(st.run)
		ingestUS = append(ingestUS, st.ingestUS...)
	}
	first := traced[0]
	ingestS := perRound(traced, func(st *roundStats) float64 { return st.ingest.cpu.Seconds() })
	runS := perRound(traced, func(st *roundStats) float64 { return st.run.cpu.Seconds() })
	if first.coreRun {
		put("core.ingest_s", ingestS)
		put("core.ingest_p50_us", median(ingestUS))
		put("core.ingest_alloc_b_per_rec", float64(ingest.bytes)/float64(recs))
		put("core.runnext_s", runS)
		put("core.runnext_alloc_b_per_rec", float64(run.bytes)/float64(recs))
		put("core.cold_window_ms", perRound(traced, func(st *roundStats) float64 {
			return float64(st.cold.cpu) / float64(time.Millisecond)
		}))
		put("baseline.ingest_s", 0)
		put("baseline.runnext_s", 0)
	} else {
		for _, n := range []string{"core.ingest_s", "core.ingest_p50_us", "core.ingest_alloc_b_per_rec",
			"core.runnext_s", "core.runnext_alloc_b_per_rec", "core.cold_window_ms"} {
			put(n, 0)
		}
		put("baseline.ingest_s", ingestS)
		put("baseline.runnext_s", runS)
	}
	put("core.new_panes", float64(first.newPanes))
	put("core.reused_panes", float64(first.reusedPanes))
	put("core.pane_reuse_ratio", ratio(first.reusedPanes, first.newPanes+first.reusedPanes))
	put("core.new_pairs", float64(first.newPairs))
	put("core.reused_pairs", float64(first.reusedPairs))
	put("core.cache_recoveries", float64(first.recoveries))
	put("core.cached_mb", float64(first.cachedBytes)/1e6)
	put("core.evictions", float64(first.evictions))

	mr := first.mr
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	put("mapreduce.map_tasks", float64(mr.MapTasks))
	put("mapreduce.reduce_tasks", float64(mr.ReduceTasks))
	put("mapreduce.failed_attempts", float64(mr.FailedAttempts))
	put("mapreduce.read_mb", float64(mr.BytesRead)/1e6)
	put("mapreduce.local_read_frac", ratio(mr.BytesReadLocal, mr.BytesRead))
	put("mapreduce.shuffle_mb", float64(mr.BytesShuffled)/1e6)
	put("mapreduce.cache_read_mb", float64(mr.BytesCacheRead)/1e6)
	put("mapreduce.output_mb", float64(mr.BytesOutput)/1e6)
	put("mapreduce.virt_map_ms", ms(mr.MapTime))
	put("mapreduce.virt_shuffle_ms", ms(mr.ShuffleTime))
	put("mapreduce.virt_reduce_ms", ms(mr.ReduceTime))

	rs := first.reuse
	put("reuse.exact_hits", float64(rs.ExactHits))
	put("reuse.subsume_hits", float64(rs.SubsumHits))
	put("reuse.misses", float64(rs.Misses))
	put("reuse.hit_ratio", ratio(rs.ExactHits+rs.SubsumHits, rs.ExactHits+rs.SubsumHits+rs.Misses))
	put("reuse.published", float64(rs.Published))
	put("reuse.dropped", float64(rs.Dropped))

	put("account.cache_hits", float64(first.acctHits))
	put("account.saved_ms", float64(first.savedNS)/1e6)
	conservation := 1.0
	if first.conservationErr != nil {
		conservation = 0
	}
	put("account.conservation_ok", conservation)
	put("lineage.nodes", float64(first.linNodes))
	put("lineage.rebuilds", float64(first.linRebuilds))
	put("eventlog.dropped", float64(first.eventsDropped))

	put("oracle.check_s", b.ref.oracle.cpu.Seconds())
	put("oracle.check_alloc_mb", float64(b.ref.oracle.bytes)/1e6)

	gcFrac := 0.0
	if rt.totalCPU > 0 {
		gcFrac = rt.gcCPU / rt.totalCPU
	}
	put("runtime.gc_cpu_frac", gcFrac)
	put("runtime.gc_cycles", float64(rt.gcCycles)/float64(len(traced)))
	put("runtime.alloc_objects_per_rec", float64(ingest.objs+run.objs)/float64(recs))

	put("parallel.speedup", perRound(serial, (*roundStats).warmWall)/perRound(plain, (*roundStats).warmWall))
	put("trace.overhead_frac", perRound(traced, (*roundStats).warmCPU)/perRound(plain, (*roundStats).warmCPU)-1)
	put("trace.coverage_frac", coverage)

	var lat []float64
	var plainRecs int
	var plainWall float64
	for _, st := range plain {
		lat = append(lat, st.wallLatencies...)
		plainRecs += st.warmRecords
		plainWall += st.warmWall()
	}
	p, _ := tailPercentile(len(lat))
	put("bench.tail_pct", p)
	put("bench.samples", float64(len(lat)))
	put("bench.fail_frac", ratio(res.Failed, res.Attempted))
	put("wall.result_p50_ms", median(lat))
	put("wall.result_tail_ms", percentile(lat, p))
	put("wall.throughput_krec_s", float64(plainRecs)/plainWall/1e3)
	put("wall.setup_s", b.setup(plain, func(c cost) time.Duration { return c.wall }))

	var total int64
	for _, n := range cpu {
		total += n
	}
	for _, m := range cpuModules {
		put("cpu."+m+"_frac", ratio(cpu[m], total))
		put("cpu."+m+"_samples", float64(cpu[m]))
	}
}
