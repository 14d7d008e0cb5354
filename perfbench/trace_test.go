package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client.upload", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "flnet.update", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "flnet.update", Start: 30, End: 60},  // overlaps span 2
		{ID: 4, Parent: 1, Name: "flnet.update", Start: 90, End: 130}, // runs past its parent
	}
	got := map[string]layerTime{}
	for _, lt := range selfTimes(spans) {
		got[lt.Name] = lt
	}
	// Children cover [10,60) and [90,100) of the parent: 60 of 100 ns.
	if c := got["client.upload"]; c.Spans != 1 || c.SelfMs != 40e-6 || c.TotalMs != 100e-6 {
		t.Fatalf("client.upload: %+v", c)
	}
	if u := got["flnet.update"]; u.Spans != 3 || u.SelfMs != u.TotalMs {
		t.Fatalf("flnet.update: %+v", u)
	}
}

func TestTransportIsClientSpanMinusHandlerSpan(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client.upload", Start: 0, End: 3e6},
		{ID: 2, Parent: 1, Name: "flnet.update", Start: 1e6, End: 2e6},
	}
	if got := transportMs(spans, "client.upload"); got != 2 {
		t.Fatalf("transport %vms, want 2", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 1, 0)
	tr.end(id)
	tr.count("x", 1)
	if id != 0 {
		t.Fatalf("nil tracer handed out span %d", id)
	}
}

// The metric lists the program prints must be the ones BENCHMARK.json
// declares, with the same units, and every declared workload must exist
// (the program also runs fleet-toy, which BENCHMARK.json leaves out).
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
	for _, w := range bench.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
}
