package main

import "sort"

// perLayer derives the per-layer metrics of a traced run from its traced
// rounds, with the untraced rounds as the baseline for the tracing
// overhead, and writes the span file. Layer-specific times are reported
// as shares of the workload's call time, so a layer a workload bypasses
// reads 0 rather than a made-up duration.
func perLayer(out map[string]metric, w *workload, rounds []roundStats, traceOut string) error {
	var traced, plain []roundStats
	for _, rs := range rounds {
		if rs.tr != nil {
			traced = append(traced, rs)
		} else {
			plain = append(plain, rs)
		}
	}

	durs := make(map[string][]float64) // span durations by name, in ms
	sums := make(map[string]float64)
	var late []float64
	var ops, callMS, events, windows, laneSum float64
	var sim simSnap
	var sentRate, dbcs, mops, tracedCPU, plainCPU []float64
	for _, rs := range traced {
		t := rs.tr
		for _, s := range t.spans {
			durs[s.name] = append(durs[s.name], ms(s.end.Sub(s.start)))
		}
		for k, v := range t.sums {
			sums[k] += v
		}
		for _, sk := range t.sinks {
			events += float64(sk.events)
			windows += float64(sk.windows)
			laneSum += float64(sk.laneSum)
		}
		for _, d := range rs.rec.late {
			late = append(late, ms(d))
		}
		for _, c := range rs.rec.calls {
			callMS += ms(c.lat)
		}
		ops += rs.ops()
		sim.cycles += rs.sim.cycles
		sim.dev.Add(rs.sim.dev)
		sim.moves.RowReads += rs.sim.moves.RowReads
		sim.moves.RowWrites += rs.sim.moves.RowWrites
		sim.moves.RowCopies += rs.sim.moves.RowCopies
		sentRate = append(sentRate, float64(len(rs.rec.calls))/rs.wall.Seconds())
		dbcs = append(dbcs, float64(rs.sim.dbcs))
		mops = append(mops, rs.refMops)
		tracedCPU = append(tracedCPU, us(rs.cpu)/rs.ops())
	}
	var verify []float64
	for _, rs := range plain {
		verify = append(verify, rs.verify.Seconds())
		plainCPU = append(plainCPU, us(rs.cpu)/rs.ops())
	}

	total := func(name string) float64 {
		var s float64
		for _, d := range durs[name] {
			s += d
		}
		return s
	}
	pct := func(vals []float64, q float64) float64 {
		sort.Float64s(vals)
		return quantile(vals, q)
	}
	set := func(name string, v float64) { setMetric(out, name, v) }

	set("loadgen.late_p99_ms", pct(late, 0.99))
	set("loadgen.sent_rate", median(sentRate))
	set("loadgen.verify_s", median(verify))

	client := total("service.client")
	handler := total("service.handler") + total("service.compile")
	set("service.transport_share", ratio(client-handler, client))
	set("service.engine_share", ratio(total("memory.window"), handler))
	set("service.compile_share", ratio(total("service.compile"), handler))
	set("service.req_bytes_per_op", ratio(sums["service.req_bytes"], ops))
	set("service.resp_bytes_per_op", ratio(sums["service.resp_bytes"], ops))
	set("service.coalesced_share", ratio(sums["service.coalesced_requests"], sums["service.accepted"]))
	set("service.reqs_per_merged_window", ratio(sums["service.coalesced_requests"], sums["service.coalesced_windows"]))
	set("service.rejected_ratio", ratio(sums["service.rejected"], sums["service.accepted"]+sums["service.rejected"]))

	set("memory.window_p50_ms", pct(durs["memory.window"], 0.50))
	set("memory.window_p99_ms", pct(durs["memory.window"], 0.99))
	set("memory.window_share", ratio(total("memory.window"), callMS))
	set("memory.plan_p50_ms", pct(durs["memory.plan"], 0.50))
	set("memory.plan_share", ratio(total("memory.plan"), callMS))
	set("memory.lanes_per_window", ratio(laneSum, windows))
	set("memory.windows_per_op", ratio(windows, ops))
	set("memory.row_reads_per_op", ratio(float64(sim.moves.RowReads), ops))
	set("memory.row_writes_per_op", ratio(float64(sim.moves.RowWrites), ops))
	set("memory.row_copies_per_op", ratio(float64(sim.moves.RowCopies), ops))
	set("memory.dbcs_materialized", median(dbcs))

	d := sim.dev
	set("device.shift_steps_per_op", ratio(float64(d.ShiftSteps), ops))
	set("device.tr_steps_per_op", ratio(float64(d.TRSteps), ops))
	set("device.write_steps_per_op", ratio(float64(d.WriteSteps), ops))
	set("device.read_steps_per_op", ratio(float64(d.ReadSteps), ops))
	set("device.tw_steps_per_op", ratio(float64(d.TWSteps), ops))
	set("device.copy_steps_per_op", ratio(float64(d.CopySteps), ops))
	set("device.logic_steps_per_op", ratio(float64(d.LogicSteps), ops))
	set("device.stall_steps_per_op", ratio(float64(d.StallSteps), ops))
	set("device.unattributed_cycles_per_op", ratio(float64(sim.cycles)-float64(d.Cycles()), ops))

	set("compile.compile_share", ratio(total("compile.compile"), callMS))
	set("compile.run_share", ratio(total("compile.run"), callMS))
	set("compile.moves_model_error", ratio(sums["compile.pred_moves"]-sums["compile.meas_copies"], sums["compile.meas_copies"]))
	set("compile.shift_model_error", ratio(sums["compile.pred_shifts"]-sums["compile.meas_shifts"], sums["compile.meas_shifts"]))
	set("compile.batches_per_prog", ratio(sums["compile.batches"], sums["compile.progs"]))
	set("compile.rows_recycled_per_prog", ratio(sums["compile.rows_recycled"], sums["compile.progs"]))
	overlap := 0.0
	if c := sums["compile.run_cycles"]; c > 0 {
		overlap = 1 - sums["compile.run_makespan"]/c
	}
	set("compile.overlap_ratio", overlap)

	set("telemetry.trace_overhead_ratio", ratio(median(tracedCPU), median(plainCPU))-1)
	set("telemetry.events_per_op", ratio(events, ops))
	hostTime(out, w, plain)
	set("host.ref_mops", median(mops))

	if traceOut == "" || len(traced) == 0 {
		return nil
	}
	return writeSpans(traceOut, traced[0].tr.t0, traced[0].tr.spans)
}
