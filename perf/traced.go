package main

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// tracedReport is the traced pass's share of a rep report: the per-layer
// metrics measured in the child, the spans, and any check that failed.
type tracedReport struct {
	Failures []string           `json:"failures,omitempty"`
	Layers   map[string]float64 `json:"layers"`
	Chunks   map[string]int     `json:"chunks"` // timed chunks behind each replay metric
	Spans    []span             `json:"spans"`
}

// replayCheckInstr is the per-core budget of the replay-fidelity check run.
func replayCheckInstr(smoke bool) uint64 {
	if smoke {
		return 2_000
	}
	return 20_000
}

// tracedPass finishes a traced rep. On the captured job it runs:
//   - a reference run through sim.NewFromNames with no wrappers, whose
//     result must equal the wrapped run's (the wrappers and the generator
//     construction replicate the simulator exactly);
//   - every layer replay, and the replay-fidelity check.
//
// Busy shares scale each layer's replay cost by the whole rep's op count.
// Sampled jobs' ops are charged to the layers functional warming also
// crosses (trace, L1/L2, LLC) but not to the timing layers.
func tracedPass(rec *recorder, rep repReport, smoke bool) (*tracedReport, error) {
	tr := &tracedReport{Layers: map[string]float64{}, Chunks: map[string]int{}}
	var cj *jobRecord
	var detOps, allOps, genNs float64
	for _, jr := range rec.jobs {
		if jr.captured {
			cj = jr
		}
		for _, g := range jr.gens {
			allOps += float64(g.ops)
			if !jr.cfg.Sample.Enabled() {
				detOps += float64(g.ops)
			}
			genNs += float64(g.genTime.Nanoseconds())
		}
	}
	if cj == nil {
		return nil, fmt.Errorf("traced pass: the rep ran no detailed multi-core job to capture")
	}

	id := rec.spans.begin("reference run", 0)
	ref := sim.NewFromNames(cj.cfg, cj.names).Run(cj.warmup, cj.measure)
	rec.spans.end(id)
	if ref.Fingerprint() != cj.res.Fingerprint() {
		tr.Failures = append(tr.Failures, "wrapped run of the captured job differs from sim.NewFromNames")
	}

	captured := make([][]trace.Op, len(cj.gens))
	for i, g := range cj.gens {
		if len(g.captured) == 0 {
			return nil, fmt.Errorf("traced pass: core %d captured no ops", i)
		}
		captured[i] = g.captured
	}
	ipc := make([]float64, len(cj.res.Apps))
	for i, a := range cj.res.Apps {
		ipc[i] = a.IPC
	}
	replays := rec.spans.begin("replays", 0)
	lr, err := replayLayers(cj.cfg, cj.names, captured, ipc, rec.spans, replays)
	if err != nil {
		return nil, err
	}
	id = rec.spans.begin("replay l2-miss check", replays)
	errPct, err := replayL2MissErrPct(cj.cfg, captured, replayCheckInstr(smoke))
	rec.spans.end(id)
	rec.spans.end(replays)
	if err != nil {
		return nil, err
	}
	tr.Layers["cache.replay_l2_miss_err_pct"] = errPct

	for name, chunks := range lr.chunks {
		tr.Layers[name] = median(chunks)
		tr.Chunks[name] = len(chunks)
	}
	traceChunks := lr.chunks["trace.ns_per_op"]
	if p, ok := tailLevel(len(traceChunks)); ok && p >= 0.99 {
		tr.Layers["trace.ns_per_op_p99"] = percentile(traceChunks, 0.99)
		tr.Chunks["trace.ns_per_op_p99"] = len(traceChunks)
	}

	// Every job's ops are charged at the captured job's per-op call rates,
	// its cores weighted by their share of its ops.
	weights := make([]float64, len(cj.gens))
	for i, g := range cj.gens {
		weights[i] = float64(g.ops)
	}
	per := lr.perOp(weights)
	llcNs, ok := tr.Layers["llc.ns_per_access."+cj.cfg.LLCPolicy]
	if !ok {
		return nil, fmt.Errorf("traced pass: policy %q is not among the replayed LLC policies", cj.cfg.LLCPolicy)
	}
	cpuNs := rep.RepCPU * 1e9
	busy := map[string]float64{
		"trace.busy_share":   allOps * tr.Layers["trace.ns_per_op"],
		"cpu.busy_share":     detOps * tr.Layers["cpu.ns_per_step"],
		"cache.busy_share":   allOps * (per.l1*tr.Layers["cache.l1_ns_per_access"] + per.l2*tr.Layers["cache.l2_ns_per_access"]),
		"llc.busy_share":     allOps * per.llc * llcNs,
		"arbiter.busy_share": detOps * per.llc * tr.Layers["arbiter.ns_per_grant"],
		"pool.busy_share":    detOps * per.pool * tr.Layers["pool.ns_per_reserve"],
		"mem.busy_share":     detOps * per.mem * tr.Layers["mem.ns_per_access"],
	}
	glue := 1.0
	for name, ns := range busy {
		tr.Layers[name] = ns / cpuNs
		glue -= ns / cpuNs
	}
	tr.Layers["sim.glue_share"] = glue
	tr.Layers["trace.insitu_share"] = genNs / cpuNs
	tr.Spans = withSelfTimes(rec.spans.list())
	return tr, nil
}
