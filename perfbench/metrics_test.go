package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestMetricsMatchBenchmarkJSON pins every metric the program prints, and
// every workload it accepts, to the declarations in BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: program declares %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: program %+v, BENCHMARK.json %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", endToEnd, d.EndToEnd)
	check("per_layer", perLayer, d.PerLayer)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("program has %d workloads, BENCHMARK.json %d", len(workloads), len(d.Workloads))
	}
	for i, w := range d.Workloads {
		if workloads[i].name != w.Name {
			t.Errorf("workload %d: program %q, BENCHMARK.json %q", i, workloads[i].name, w.Name)
		}
	}
}

func TestReportPrintsExactlyTheDeclaredSet(t *testing.T) {
	vals := make(map[string]float64)
	for i, d := range endToEnd {
		vals[d.Name] = float64(i) + 0.5
	}
	var buf bytes.Buffer
	if err := report(&buf, endToEnd, vals, true, 100, 0); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v", err)
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Fatalf("printed %d metrics, declared %d", len(res.Metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit || m.Value != vals[d.Name] {
			t.Errorf("metric %s printed as %+v", d.Name, m)
		}
	}

	delete(vals, "setup_s")
	if err := report(&buf, endToEnd, vals, true, 100, 0); err == nil {
		t.Error("report accepted a missing metric")
	}
	vals["setup_s"] = 1
	vals["undeclared"] = 1
	if err := report(&buf, endToEnd, vals, true, 100, 0); err == nil {
		t.Error("report accepted an undeclared metric")
	}
}

// TestLayersMapEveryPerLayerMetric checks layers.json against the declared
// metrics: one entry per per-layer metric, in order, whose predictions name
// only declared end-to-end metrics and workloads, and whose counts carry a
// determinism verdict for every workload.
func TestLayersMapEveryPerLayerMetric(t *testing.T) {
	data, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		PerLayer []struct {
			Name  string `json:"name"`
			Moves []struct {
				Metric   string `json:"metric"`
				Workload string `json:"workload"`
			} `json:"moves"`
			FlatOn      []string          `json:"flat_on"`
			Determinism map[string]string `json:"determinism"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("layers.json maps %d metrics, %d declared", len(doc.PerLayer), len(perLayer))
	}
	e2e := make(map[string]bool)
	for _, d := range endToEnd {
		e2e[d.Name] = true
	}
	isWorkload := func(name string) bool {
		_, err := workloadByName(name)
		return err == nil
	}
	for i, l := range doc.PerLayer {
		d := perLayer[i]
		if l.Name != d.Name {
			t.Fatalf("layers.json entry %d is %s, want %s", i, l.Name, d.Name)
		}
		for _, m := range l.Moves {
			if !e2e[m.Metric] || !isWorkload(m.Workload) {
				t.Errorf("%s moves undeclared %s on %s", l.Name, m.Metric, m.Workload)
			}
		}
		for _, w := range l.FlatOn {
			if !isWorkload(w) {
				t.Errorf("%s flat on unknown workload %s", l.Name, w)
			}
		}
		if d.Unit != "count" {
			continue
		}
		for _, w := range workloads {
			if v := l.Determinism[w.name]; v != "exact" && v != "spread" {
				t.Errorf("%s on %s: determinism %q, want exact or spread", l.Name, w.name, v)
			}
		}
	}
}
