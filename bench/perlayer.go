package main

import (
	"slices"

	"lsmssd"
)

// perLayerDefs lists the per-layer metrics, module by module; every traced
// run emits all of them. Units: ns and s are times, count and ratio and
// frac are dimensionless, B is bytes.
var perLayerDefs = []metricDef{
	{"router.put_overhead_ns", "ns"}, {"router.get_overhead_ns", "ns"}, {"router.scan_merge_ns_per_key", "ns"},
	{"wal.append_ns", "ns"}, {"wal.append_allocs", "count"}, {"wal.append_bytes", "B"}, {"wal.sync_ns", "ns"},
	{"wal.syncs_per_op", "ratio"}, {"wal.bytes_per_user_byte", "ratio"}, {"wal.rotations", "count"}, {"wal.replay_s", "s"},
	{"memtable.put_ns", "ns"}, {"memtable.put_allocs", "count"}, {"memtable.get_ns", "ns"},
	{"memtable.snapshot_ns", "ns"}, {"memtable.ascend_ns_per_rec", "ns"},
	{"compaction.stall_frac", "frac"}, {"compaction.slowdowns", "count"}, {"compaction.stops", "count"},
	{"compaction.steps", "count"}, {"compaction.queue_depth_max", "count"}, {"compaction.drain_s", "s"},
	{"core.put_ns", "ns"}, {"core.get_ns", "ns"}, {"core.merges", "count"}, {"core.full_merges", "count"},
	{"core.height", "count"}, {"core.merge_busy_frac", "frac"},
	{"policy.window_blocks_mean", "blocks"}, {"policy.overlap_blocks_mean", "blocks"},
	{"merge.preserved_frac", "frac"}, {"merge.repair_write_frac", "frac"},
	{"merge.ns_per_input_block", "ns"}, {"merge.allocs_per_input_block", "count"},
	{"level.l1_writes_per_mb", "blocks/MB"}, {"level.l2_writes_per_mb", "blocks/MB"},
	{"level.l3_writes_per_mb", "blocks/MB"}, {"level.l4_writes_per_mb", "blocks/MB"},
	{"level.runs_max", "count"}, {"btree.find_ns", "ns"}, {"level.get_ns", "ns"},
	{"block.encode_ns", "ns"}, {"block.decode_ns", "ns"}, {"block.decode_allocs", "count"}, {"block.build_ns_per_rec", "ns"},
	{"bloom.skip_frac", "frac"}, {"bloom.false_pass_frac", "frac"}, {"bloom.may_contain_ns", "ns"},
	{"bloom.build_ns_per_key", "ns"}, {"bloom.mem_bits_per_key", "bits"},
	{"cache.hit_frac", "frac"}, {"cache.read_hit_ns", "ns"}, {"cache.read_hit_allocs", "count"},
	{"cache.read_miss_ns", "ns"}, {"cache.evictions_per_get", "ratio"},
	{"storage.writes", "count"}, {"storage.reads", "count"}, {"storage.syncs", "count"},
	{"storage.write_ns", "ns"}, {"storage.read_ns", "ns"}, {"storage.sync_ns", "ns"},
	{"storage.busy_frac", "frac"}, {"storage.bytes_per_user_byte", "ratio"},
	{"obs.trace_overhead_frac", "frac"},
	{"bench.gen_late_p99_us", "us"}, {"bench.trace_overhead_frac", "frac"},
	{"tail.put_p99_us", "us"}, {"tail.get_p99_us", "us"}, {"tail.apply_p99_us", "us"}, {"tail.put_p50_sched_us", "us"},
	{"budget.put_unattributed_frac", "frac"}, {"budget.get_unattributed_frac", "frac"}, {"budget.write_path_frac", "frac"},
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer derives the per-layer metrics of one traced phase from three
// sources, all outside the engine: Stats deltas over the window and the
// published events, the device decorator's spans, and the layer replays.
func perLayer(p *plan, res *phaseResult, tr *tracer, d devTotals, replays map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(perLayerDefs))
	for k, v := range replays {
		out[k] = v
	}
	b, a := res.before, res.after
	wallNs := res.wall * 1e9
	mb := float64(p.reqBytes) / (1 << 20)
	var writes, gets float64 // public write calls and Get calls in the window
	for _, rec := range res.recs {
		writes += float64(len(rec.lat[lPut]) + len(rec.lat[lDelete]) + len(rec.lat[lApply]))
		gets += float64(len(rec.lat[lGet]))
	}

	// wal
	walOps := float64(a.WAL.Ops - b.WAL.Ops)
	appends := float64(a.WAL.Appends - b.WAL.Appends)
	syncs := float64(a.WAL.Syncs - b.WAL.Syncs)
	out["wal.syncs_per_op"] = ratio(syncs, walOps)
	out["wal.bytes_per_user_byte"] = ratio(float64(a.WAL.Bytes-b.WAL.Bytes), float64(p.reqBytes))
	out["wal.rotations"] = float64(a.WAL.Rotations - b.WAL.Rotations)

	// compaction
	stallNs := float64(a.Compaction.SlowdownTime - b.Compaction.SlowdownTime + a.Compaction.StopTime - b.Compaction.StopTime)
	out["compaction.stall_frac"] = stallNs / wallNs
	out["compaction.slowdowns"] = float64(a.Compaction.Slowdowns - b.Compaction.Slowdowns)
	out["compaction.stops"] = float64(a.Compaction.Stops - b.Compaction.Stops)
	out["compaction.steps"] = float64(a.Compaction.Steps - b.Compaction.Steps)
	out["compaction.queue_depth_max"] = float64(tr.queueMax)

	// core, policy, merge: from the merge events of the window
	out["core.merges"] = float64(a.Merges - b.Merges)
	out["core.full_merges"] = float64(a.FullMerges - b.FullMerges)
	out["core.height"] = float64(a.Height)
	out["core.merge_busy_frac"] = float64(d.mergeEventNs) / wallNs
	var x, y, preserved, fresh, repair, total float64
	for _, m := range tr.merges {
		x += float64(m.XBlocks)
		y += float64(m.YBlocks)
		preserved += float64(m.PreservedX + m.PreservedY)
		fresh += float64(m.BlocksWritten)
		total += float64(m.TotalWrites())
		repair += float64(m.TotalWrites() - m.BlocksWritten)
	}
	n := float64(len(tr.merges))
	out["policy.window_blocks_mean"] = ratio(x, n)
	out["policy.overlap_blocks_mean"] = ratio(y, n)
	out["merge.preserved_frac"] = ratio(preserved, preserved+fresh)
	out["merge.repair_write_frac"] = ratio(repair, total)

	// level
	levelWrites := func(st lsmssd.Stats, level int) int64 {
		for _, l := range st.Levels {
			if l.Level == level {
				return l.BlocksWritten
			}
		}
		return 0
	}
	for i, name := range []string{"level.l1_writes_per_mb", "level.l2_writes_per_mb", "level.l3_writes_per_mb", "level.l4_writes_per_mb"} {
		out[name] = ratio(float64(levelWrites(a, i+1)-levelWrites(b, i+1)), mb)
	}
	for _, l := range a.Levels {
		out["level.runs_max"] = max(out["level.runs_max"], float64(l.Runs))
	}

	// bloom, cache
	skipped, passed := float64(a.BloomSkipped-b.BloomSkipped), float64(a.BloomPassed-b.BloomPassed)
	out["bloom.skip_frac"] = ratio(skipped, skipped+passed)
	// Checks of a block that does hold the key must pass; a Get that finds
	// its key made exactly one. Of the remaining checks, the share that
	// passed is the filter's false-pass rate.
	found := 0.0
	for _, ops := range p.ops {
		for _, o := range ops {
			if o.kind == opGet && o.ver != 0 {
				found++
			}
		}
	}
	found = min(found, passed)
	out["bloom.false_pass_frac"] = ratio(passed-found, skipped+passed-found)
	hits, misses := float64(a.CacheHits-b.CacheHits), float64(a.CacheMisses-b.CacheMisses)
	out["cache.hit_frac"] = ratio(hits, hits+misses)
	// The cache is full from set-up on, so each miss evicts one block.
	out["cache.evictions_per_get"] = ratio(misses, float64(a.Lookups-b.Lookups))

	// storage: the decorator's spans
	out["storage.reads"] = float64(d.count[devRead])
	out["storage.writes"] = float64(d.count[devWrite])
	out["storage.syncs"] = float64(d.count[devSync])
	out["storage.read_ns"] = ratio(float64(d.ns[devRead]), float64(d.count[devRead]))
	out["storage.write_ns"] = ratio(float64(d.ns[devWrite]), float64(d.count[devWrite]))
	out["storage.sync_ns"] = ratio(float64(d.ns[devSync]), float64(d.count[devSync]))
	devNs := float64(d.ns[devRead] + d.ns[devWrite] + d.ns[devSync])
	out["storage.busy_frac"] = devNs / wallNs
	out["storage.bytes_per_user_byte"] = ratio(float64(d.count[devWrite])*blockSize, float64(p.reqBytes))

	// bench
	var late []uint32
	for _, rec := range res.recs {
		late = append(late, rec.late...)
	}
	slices.Sort(late)
	out["bench.gen_late_p99_us"] = quantile(late, 0.99) / 1e3

	// budget: every nanosecond of process CPU in the window goes to one
	// row; what no row claims is unattributed. Replay costs are multiplied
	// by how often the window invoked that layer; device time is taken out
	// of the merge that issued it.
	bgReadNs := float64(d.ns[devRead] - d.fgReadNs)
	writePath := replays["wal.append_ns"]*appends + replays["wal.sync_ns"]*syncs +
		replays["memtable.put_ns"]*walOps +
		max(float64(d.mergeEventNs)-bgReadNs-float64(d.ns[devWrite]), 0) +
		bgReadNs + float64(d.ns[devWrite]+d.ns[devSync])
	putRows := writePath + max(replays["router.put_overhead_ns"], 0)*writes + stallNs
	probes := skipped + passed // level lookups that got as far as the filter
	getRows := (max(replays["router.get_overhead_ns"], 0)+replays["memtable.get_ns"])*gets +
		(replays["btree.find_ns"]+replays["bloom.may_contain_ns"])*probes +
		replays["cache.read_hit_ns"]*hits + float64(d.fgReadNs)
	// From outside, CPU time cannot be split between the two call families,
	// so on a window that issues both, the two numbers are the same: the
	// share of all CPU that neither family's rows claim.
	out["budget.put_unattributed_frac"] = 0
	out["budget.get_unattributed_frac"] = 0
	out["budget.write_path_frac"] = ratio(writePath, putRows+getRows)
	unattributed := 1 - ratio(putRows+getRows, res.cpu*1e9)
	if writes > 0 {
		out["budget.put_unattributed_frac"] = unattributed
	}
	if gets > 0 {
		out["budget.get_unattributed_frac"] = unattributed
	}
	return out
}
