package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// Every workload must print exactly the metrics BENCHMARK.json declares:
// the end-to-end ones on every run and the per-layer ones on a traced
// run, each with its declared unit.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, the benchmark has %v", names, workloads)
	}
	units := func(decl []struct{ Name, Unit string }) map[string]string {
		m := map[string]string{}
		for _, d := range decl {
			m[d.Name] = d.Unit
		}
		return m
	}
	check := func(w, kind string, got metricSet, want map[string]string) {
		have := map[string]string{}
		for _, m := range got {
			have[m.name] = m.unit
		}
		if !reflect.DeepEqual(have, want) {
			var missing, extra []string
			for n := range want {
				if _, ok := have[n]; !ok {
					missing = append(missing, n)
				}
			}
			for n := range have {
				if _, ok := want[n]; !ok {
					extra = append(extra, n)
				}
			}
			sort.Strings(missing)
			sort.Strings(extra)
			t.Errorf("%s %s metrics: missing %v, undeclared %v (or a unit differs)", w, kind, missing, extra)
		}
	}
	for _, w := range workloads {
		out, err := measure(w, 2, 2, true)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		check(w, "end-to-end", out.e2e, units(spec.EndToEnd))
		check(w, "per-layer", out.layer, units(spec.PerLayer))
		if out.attempted < 1 || out.failed != 0 {
			t.Errorf("%s: attempted %d, failed %d", w, out.attempted, out.failed)
		}
	}
}
