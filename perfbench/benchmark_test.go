package main

import (
	"encoding/json"
	"errors"
	"maps"
	"os"
	"slices"
	"testing"
	"time"

	"github.com/incompletedb/incompletedb/internal/server"
)

// The metrics a run prints on its JSON line must be exactly the ones
// BENCHMARK.json declares, with the same units, in both modes.
func TestReportMatchesBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	want := func(ms []metric) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	got := func(vs map[string]metricValue) map[string]string {
		out := map[string]string{}
		for k, v := range vs {
			out[k] = v.Unit
		}
		return out
	}
	var names []string
	for _, w := range workloads(2) {
		names = append(names, w.name)
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	slices.Sort(names)
	slices.Sort(declared)
	if !slices.Equal(names, declared) {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", names, declared)
	}

	outs := []outcome{
		{class: "read", lat: time.Millisecond, work: 4},
		{class: "write", lat: 3 * time.Millisecond, work: 4},
		{class: "read", lat: 2 * time.Millisecond, err: errors.New("refused")},
	}
	ph := &phase{outs: outs, elapsed: time.Second, cycles: []int{1}, allocBytes: 1 << 20}
	tr := newTracer()
	o := tr.begin("read")
	_ = o.do("cq.parse", func() error { return nil })
	o.end()
	for _, w := range workloads(2) {
		w := w
		rep := &report{workload: w.name}
		endToEnd(rep, &w, ph, []float64{0.1, 0.2, 0.3})
		if g, e := got(rep.gated(false)), want(spec.EndToEnd); !maps.Equal(g, e) {
			t.Errorf("%s: end-to-end metrics %v, BENCHMARK.json declares %v", w.name, g, e)
		}
		perLayer(rep, &w, ph, tr, server.Stats{}, server.Stats{})
		if g, e := got(rep.gated(true)), want(spec.PerLayer); !maps.Equal(g, e) {
			t.Errorf("%s: per-layer metrics %v, BENCHMARK.json declares %v", w.name, g, e)
		}
	}
}
