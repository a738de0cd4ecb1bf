package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"msrp"
	"msrp/internal/server"
)

// The metric lists in the code must be exactly the ones BENCHMARK.json
// declares, and the prediction map must cover every per-layer metric.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(what string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Fatalf("%s: code has %d metrics, BENCHMARK.json %d", what, len(defs), len(got))
		}
		for i, d := range defs {
			if d.name != got[i].Name || d.unit != got[i].Unit {
				t.Errorf("%s[%d]: code %s/%s, BENCHMARK.json %s/%s", what, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, bj.EndToEnd)
	same("per_layer", perLayer, bj.PerLayer)
	for _, w := range bj.Workloads {
		if _, ok := bypassed[w.Name]; !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}

	raw, err = os.ReadFile("predictions.json")
	if err != nil {
		t.Fatal(err)
	}
	var pm struct {
		Layers map[string]struct {
			Metrics []string `json:"metrics"`
		} `json:"layers"`
	}
	if err := json.Unmarshal(raw, &pm); err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for layer, l := range pm.Layers {
		for _, m := range l.Metrics {
			if !strings.HasPrefix(m, layer+".") {
				t.Errorf("predictions.json: %s listed under layer %s", m, layer)
			}
			listed[m] = true
		}
	}
	for _, d := range perLayer {
		if !listed[d.name] {
			t.Errorf("predictions.json does not list %s", d.name)
		}
		delete(listed, d.name)
	}
	for m := range listed {
		t.Errorf("predictions.json lists %s, which is not a per-layer metric", m)
	}
}

// A corrupted entry in a solved table is caught.
func TestCheckTablesCatchesCorruptedAnswer(t *testing.T) {
	inst := newInstance(7)
	row := func(i, v int) []int32 { return inst.ref[i].Len[v] }
	if got := checkTables(inst, len(inst.ref), row); got.wrong != 0 || got.attempted == 0 {
		t.Fatalf("reference against itself: %+v", got)
	}
	corrupt := func(i, v int) []int32 {
		r := inst.ref[i].Len[v]
		if i == 3 && len(r) > 0 {
			r = append([]int32(nil), r...)
			r[0]++
		}
		return r
	}
	got := checkTables(inst, len(inst.ref), corrupt)
	if got.wrong == 0 {
		t.Fatal("corrupted table passed the check")
	}
	if got.firstWrong == "" {
		t.Fatal("no description of the wrong answer")
	}
}

// Served answers: a correct length and a valid path pass; a corrupted
// length, a missing path, a path through the avoided edge and a path
// with the wrong endpoint are all wrong; failures count as failed.
func TestCheckItemCatchesWrongLengthsAndInvalidPaths(t *testing.T) {
	inst := newInstance(7)
	opts := inst.options(1)
	opts.TrackPaths = true
	o, err := msrp.NewOracle(inst.g, inst.sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Find a query whose replacement path is longer than the canonical
	// path by an even number of edges, so a walk of the right length
	// through the avoided edge exists: the canonical path, then bounces
	// on an edge at the target.
	qg := newQueryGen(inst, []mixEntry{{size: 1, weight: 1, paths: true}}, 1)
	ig := inst.g.Internal()
	var q server.QueryItem
	var good server.AnswerItem
	var canonical []int32
	for {
		q = qg.query(true)
		a := o.QueryBatch([]msrp.Query{{Source: q.Source, Target: q.Target, U: q.U, V: q.V, Paths: true}})[0]
		if a.Err != nil {
			t.Fatal(a.Err)
		}
		canonical = inst.refOf[q.Source].Tree.PathTo(int32(q.Target))
		if extra := int(a.Length) - (len(canonical) - 1); a.Length != msrp.NoPath && extra > 0 && extra%2 == 0 {
			good = server.AnswerItem{Length: a.Length, Path: a.Path}
			break
		}
	}
	judge := func(a server.AnswerItem) tally { return checkItem(inst, q, a) }
	if got := judge(good); got.wrong != 0 || got.failed != 0 {
		t.Fatalf("correct answer judged %+v", got)
	}

	wrongLen := good
	wrongLen.Length++
	through := good
	through.Path = append([]int32(nil), canonical...)
	nbrs, _ := ig.Neighbors(q.Target)
	bounce := nbrs[0]
	if (bounce == int32(q.U) || bounce == int32(q.V)) && len(nbrs) > 1 {
		bounce = nbrs[1]
	}
	for len(through.Path)-1 < int(good.Length) {
		through.Path = append(through.Path, bounce, int32(q.Target))
	}
	wrongEnd := good
	wrongEnd.Path = append([]int32(nil), good.Path...)
	wrongEnd.Path[len(wrongEnd.Path)-1] = wrongEnd.Path[len(wrongEnd.Path)-2]
	missing := good
	missing.Path = nil
	for name, a := range map[string]server.AnswerItem{
		"wrong length":         wrongLen,
		"through avoided edge": through,
		"wrong endpoint":       wrongEnd,
		"missing path":         missing,
	} {
		if got := judge(a); got.wrong != 1 {
			t.Errorf("%s: judged %+v, want one wrong answer", name, got)
		}
	}

	for name, a := range map[string]server.AnswerItem{
		"route error": {RouteError: "no live replica"},
		"item error":  {Error: "rebuild saturated"},
		"path error":  {Length: good.Length, PathError: "path vertex budget exceeded"},
	} {
		if got := judge(a); got.failed != 1 || got.wrong != 0 {
			t.Errorf("%s: judged %+v, want one failed item", name, got)
		}
	}
	if got := checkBatch(inst, []server.QueryItem{q, q}, nil); got.failed != 2 || got.attempted != 2 {
		t.Errorf("batch without a response: %+v", got)
	}
}

func TestSpanSelfTimeAndNesting(t *testing.T) {
	milli := time.Millisecond
	parent := span{ID: 1, Name: "router", Start: 0, End: 10 * milli}
	kids := []span{
		{ID: 2, Parent: 1, Name: "roundtrip", Start: 1 * milli, End: 4 * milli},
		{ID: 3, Parent: 1, Name: "roundtrip", Start: 3 * milli, End: 6 * milli},
	}
	tree := buildTree(append([]span{parent}, kids...))
	if got := tree.selfTime(parent); got != 5*milli {
		t.Fatalf("self time %v, want 5ms (overlapping children counted once)", got)
	}
	if bad := tree.validate(); len(bad) != 0 {
		t.Fatalf("valid tree reported: %v", bad)
	}
	outside := span{ID: 4, Parent: 1, Name: "roundtrip", Start: 9 * milli, End: 11 * milli}
	orphan := span{ID: 5, Parent: 99, Name: "server", Start: 0, End: milli}
	tree = buildTree([]span{parent, outside, orphan})
	if bad := tree.validate(); len(bad) != 2 {
		t.Fatalf("want 2 violations (child outside parent, missing parent), got %v", bad)
	}
}

func TestQuietHalfDropsTheMostStolenWindows(t *testing.T) {
	ws := []window{{P50ms: 4, Steal: 0.3}, {P50ms: 1, Steal: 0}, {P50ms: 2, Steal: 0.1}, {P50ms: 3, Steal: 0.2}, {P50ms: 5, Steal: 0.4}}
	got := quietHalf(ws)
	if len(got) != 3 || got[0].P50ms != 1 || got[1].P50ms != 2 || got[2].P50ms != 3 {
		t.Fatalf("quietHalf kept %+v", got)
	}
	ws[2].Steal = -1
	if got := quietHalf(ws); len(got) != len(ws) {
		t.Fatalf("with an unreported window, kept %d of %d", len(got), len(ws))
	}
}
