package msrp

import (
	"testing"

	"msrp/internal/engine"
	"msrp/internal/graph"
	"msrp/internal/rp"
	"msrp/internal/ssrp"
	"msrp/internal/xrand"
)

// pipelineFamilies mirrors the public crosscheck families (plus the
// skewed PathStarMix the work-stealing engine is measured on) at sizes
// where the σ-source solve runs in milliseconds, so the determinism
// sweep (TestSchedulesBitIdentical) stays cheap under -race.
func pipelineFamilies() []struct {
	name    string
	g       *graph.Graph
	sources []int32
} {
	rng := xrand.New(20200808)
	fam := func(name string, g *graph.Graph) struct {
		name    string
		g       *graph.Graph
		sources []int32
	} {
		n := int32(g.NumVertices())
		srcs := []int32{0, n / 3, 2 * n / 3}
		uniq := srcs[:0]
		seen := map[int32]bool{}
		for _, s := range srcs {
			if !seen[s] {
				seen[s] = true
				uniq = append(uniq, s)
			}
		}
		return struct {
			name    string
			g       *graph.Graph
			sources []int32
		}{name, g, uniq}
	}
	out := []struct {
		name    string
		g       *graph.Graph
		sources []int32
	}{
		fam("erdos-renyi-sparse", graph.RandomConnected(rng, 48, 80)),
		fam("erdos-renyi-dense", graph.RandomConnected(rng, 30, 160)),
		fam("grid-4x9", graph.Grid(4, 9)),
		fam("path-with-chords", graph.PathWithChords(rng, 40, 8)),
		fam("cycle-with-chords", graph.CycleWithChords(rng, 36, 6)),
		fam("barbell", graph.Barbell(8, 7)),
	}
	// The skewed family: deep path-tail sources interleaved with star
	// leaves, the shape that makes the pipeline actually overlap heavy
	// builds with light enumerations.
	psm := graph.PathStarMix(xrand.New(31), 60, 18, 12)
	out = append(out, struct {
		name    string
		g       *graph.Graph
		sources []int32
	}{"path-star-mix", psm, []int32{59, 60, 40, 64, 20, 68}})
	return out
}

// solveBarrierForTest is a test-only reference for the streaming solve:
// the same stages run one at a time over the pool, each finishing for
// every source or center before the next starts — every per-source
// build, then every seed shard and the reference fold, then every
// center's G_c, then the assembly. No item waits on a ready queue, so
// it shares no scheduling code with SolveShared. Besides the results it
// returns the seed-table size and the G_c node and arc totals, which
// move if a center's G_c misses seed entries.
func solveBarrierForTest(t *testing.T, g *graph.Graph, sources []int32, par int) ([]*rp.Result, [3]int64) {
	t.Helper()
	sh, err := ssrp.NewShared(g, sources, sweepParams(par, false))
	if err != nil {
		t.Fatal(err)
	}
	ctr := newCenters(sh, sh.DeriveRNG())
	perSrc := make([]*ssrp.PerSource, len(sources))
	scs := make([]*sourceCenter, len(sources))
	sh.Pool.RunScratch(len(sources), func(i int, sc *engine.Scratch) {
		ps := sh.NewPerSource(sources[i])
		ps.BuildSmallNearScratch(sc)
		perSrc[i] = ps
		scs[i] = buildSourceCenter(ps, ctr, sc)
	})
	seed, _ := seedTableForTest(sh, ctr, perSrc)
	cl := centerLandmarkForTest(sh, ctr, seed)
	results := make([]*rp.Result, len(sources))
	sh.Pool.RunScratch(len(sources), func(i int, sc *engine.Scratch) {
		ps := perSrc[i]
		ps.SetLenSR(assembleLenSR(ps, ctr, scs[i], cl, sc))
		sweepLandmarks(ps, maxSweeps)
		var st ssrp.Stats
		results[i] = ps.Combine(&st)
	})
	return results, [3]int64{int64(seed.Len()), cl.NumNodes(), cl.NumArcs()}
}

// TestPipelinedSolveMatchesBarrier checks the streaming solve against
// the stage-at-a-time reference (solveBarrierForTest): for every
// family, both at Parallelism ∈ {1, 2, 8} return results, seed count
// and G_c node and arc totals identical to the reference at P=1.
func TestPipelinedSolveMatchesBarrier(t *testing.T) {
	for _, f := range pipelineFamilies() {
		t.Run(f.name, func(t *testing.T) {
			baseline, baseCounts := solveBarrierForTest(t, f.g, f.sources, 1)
			for _, par := range []int{1, 2, 8} {
				for _, barrier := range []bool{false, true} {
					var results []*rp.Result
					var counts [3]int64
					if barrier {
						results, counts = solveBarrierForTest(t, f.g, f.sources, par)
					} else {
						sol := solveAt(t, f.g, f.sources, par, false)
						results = sol.Results
						counts = [3]int64{int64(sol.Stats.SeedCount), sol.Stats.CLNodes, sol.Stats.CLArcs}
					}
					if counts != baseCounts {
						t.Fatalf("P=%d barrier=%v: seeds, G_c nodes, G_c arcs = %v, want %v",
							par, barrier, counts, baseCounts)
					}
					for i := range results {
						if d := rp.Diff(baseline[i], results[i]); d != "" {
							t.Fatalf("P=%d barrier=%v: source %d differs: %s",
								par, barrier, f.sources[i], d)
						}
					}
				}
			}
		})
	}
}

// TestPipelinePeakSeedPathBytes pins the memory contract at the
// deterministic P=1 point: the solve releases each source's §7.1
// path-expansion state before building the next, so the peak is the
// largest single source's state, not the sum over sources.
func TestPipelinePeakSeedPathBytes(t *testing.T) {
	g := graph.PathStarMix(xrand.New(5), 80, 24, 16)
	sources := []int32{79, 80, 53, 84, 26, 88, 13, 92}

	p := testParams(77)
	p.Parallelism = 1
	_, stats, err := solveT(g, sources, p)
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct the deterministic P=1 value independently.
	sh, err := ssrp.NewShared(g, sources, p)
	if err != nil {
		t.Fatal(err)
	}
	var sum, max int64
	for _, s := range sources {
		ps := sh.NewPerSource(s)
		ps.BuildSmallNear()
		b := ps.Small.PathStateBytes()
		sum += b
		if b > max {
			max = b
		}
	}
	if max <= 0 || stats.PeakSeedPathBytes != max {
		t.Errorf("P=1 peak = %d, want max single source %d", stats.PeakSeedPathBytes, max)
	}
	if stats.PeakSeedPathBytes >= sum {
		t.Errorf("P=1 peak %d not below the all-sources sum %d", stats.PeakSeedPathBytes, sum)
	}
}

// TestStageLatencyBreakdown: the Stats stage timers are populated —
// every stage of a non-trivial solve takes measurable time.
func TestStageLatencyBreakdown(t *testing.T) {
	g := graph.CycleWithChords(xrand.New(8), 72, 8)
	sources := []int32{0, 24, 48}
	p := testParams(77)
	p.Parallelism = 2
	_, stats, err := solveT(g, sources, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []struct {
		name string
		d    int64
	}{
		{"per-source build", int64(stats.StagePerSourceBuild)},
		{"seed enumerate", int64(stats.StageSeedEnumerate)},
		{"center landmark", int64(stats.StageCenterLandmark)},
		{"assembly", int64(stats.StageAssembly)},
	} {
		if st.d <= 0 {
			t.Errorf("stage %q recorded no time", st.name)
		}
	}
	// The merge can round to zero on a tiny table, but must never be
	// negative.
	if stats.StageSeedMerge < 0 {
		t.Error("negative merge time")
	}
}

// TestReleasedSmallNearPanicsOnPathExpansion pins the release
// contract: Value keeps answering, PathVertices panics.
func TestReleasedSmallNearPanicsOnPathExpansion(t *testing.T) {
	g := graph.Cycle(12)
	sh, err := ssrp.NewShared(g, []int32{0}, testParams(3))
	if err != nil {
		t.Fatal(err)
	}
	ps := sh.NewPerSource(0)
	ps.BuildSmallNear()
	before := ps.Small.Value(6, 5)
	if freed := ps.Small.ReleasePathState(); freed <= 0 {
		t.Fatalf("ReleasePathState freed %d bytes", freed)
	}
	if got := ps.Small.Value(6, 5); got != before {
		t.Fatalf("Value changed after release: %d -> %d", before, got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("PathVertices after release did not panic")
		}
	}()
	ps.Small.PathVertices(6, 5)
}
