package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// metricDef declares one reported metric. The lists below are the single
// source of the names and units printed; metrics_test.go pins them to
// BENCHMARK.json.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd is what a user of the engine sees, printed by the untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"ok_ratio", "ratio", "higher"},
	{"wire_mb_per_op", "MB", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"peak_heap_mb", "MB", "lower"},
}

// perLayer is printed by the traced run, one entry per layer quantity.
var perLayer = []metricDef{
	{"setops.merge_per_op", "count", "lower"},
	{"setops.gallop_per_op", "count", "lower"},
	{"setops.bitmap_per_op", "count", "lower"},
	{"setops.pivot_per_op", "count", "lower"},
	{"setops.replay_ns_per_elem", "ns", "lower"},
	{"plan.compile_ms", "ms", "lower"},
	{"plan.single_ms", "ms", "lower"},
	{"cluster.cost_ratio", "ratio", "lower"},
	{"core.engine_ms", "ms", "lower"},
	{"core.extensions_per_op", "count", "lower"},
	{"core.vertical_hits_per_op", "count", "higher"},
	{"core.hds_hits_per_op", "count", "higher"},
	{"core.peak_embeddings", "count", "lower"},
	{"core.compute_ms_per_op", "ms", "lower"},
	{"core.scheduler_ms_per_op", "ms", "lower"},
	{"cache.hit_rate", "ratio", "higher"},
	{"cache.ms_per_op", "ms", "lower"},
	{"comm.network_ms_per_op", "ms", "lower"},
	{"comm.remote_fetches_per_op", "count", "lower"},
	{"comm.messages_per_op", "count", "lower"},
	{"comm.pipelined_fetches_per_op", "count", "higher"},
	{"comm.inflight_peak", "count", "higher"},
	{"comm.replay_fetch_p50_us", "us", "lower"},
	{"comm.replay_mb_per_s", "MB/s", "higher"},
	{"cluster.run_ms_p50", "ms", "lower"},
	{"cluster.modeled_ms", "ms", "lower"},
	{"cluster.imbalance", "ratio", "lower"},
	{"service.exec_ms_p50", "ms", "lower"},
	{"service.overhead_ms_p50", "ms", "lower"},
	{"service.rejected", "count", "lower"},
	{"service.active_peak", "count", "higher"},
	{"loadgen.lag_ms_p90", "ms", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints one human-readable line per declared metric and then the
// JSON result line. It fails when vals misses a declared metric or holds an
// undeclared one, so the printed set always equals the declared set.
func report(w io.Writer, defs []metricDef, vals map[string]float64, correct bool, attempted, failed int) error {
	if len(vals) != len(defs) {
		return fmt.Errorf("perfbench: %d metric values for %d declared metrics", len(vals), len(defs))
	}
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return fmt.Errorf("perfbench: metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "%-32s %14.6g %s\n", d.Name, v, d.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("perfbench: encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
