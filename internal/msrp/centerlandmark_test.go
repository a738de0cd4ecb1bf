package msrp

import (
	"fmt"
	"slices"
	"testing"

	"msrp/internal/cuckoo"
	"msrp/internal/dijkstra"
	"msrp/internal/engine"
	"msrp/internal/graph"
	"msrp/internal/rp"
	"msrp/internal/ssrp"
	"msrp/internal/xrand"
)

// referenceGc is the explicit §8.2.2 construction: G_c materialised arc
// by arc into a dijkstra.Builder, compacted to CSR and solved with
// dijkstra.Run. The production stage generates the same arcs lazily
// (solveGc); this is its test oracle, and must stay a literal
// transcription of the Lemma 21/22 arc list rather than share code
// with the implicit version.
func referenceGc(sh *ssrp.Shared, ctr *Centers, c int32, seed *cuckoo.Partitioned) (rows [][]int32, res *dijkstra.Result, nodes, arcs int) {
	g := sh.G
	tc := ctr.Tree[c]
	ancC := ctr.Anc[c]
	budget := ctr.Budget(ctr.Priority(c))

	type lmInfo struct {
		r        int32
		li       int32
		node     int32
		base     int32
		count    int32
		pathEdge []int32
	}
	var infos []lmInfo
	next := int32(1)
	for li, r := range sh.List {
		if r == c || !tc.Reachable(r) {
			continue
		}
		infos = append(infos, lmInfo{r: r, li: int32(li), node: next})
		next++
	}
	for idx := range infos {
		in := &infos[idx]
		l := tc.Dist[in.r]
		in.count = min(budget, l)
		in.base = next
		next += in.count
		in.pathEdge = make([]int32, in.count)
		x := in.r
		for j := l - 1; j >= 0; j-- {
			if j < in.count {
				in.pathEdge[j] = tc.ParentEdge[x]
			}
			x = tc.Parent[x]
		}
	}
	nodes = int(next)

	bld := dijkstra.NewBuilder(nodes, nodes*4)
	for idx := range infos {
		bld.AddArc(0, infos[idx].node, tc.Dist[infos[idx].r])
	}
	for idx := range infos {
		in := &infos[idx]
		for j := int32(0); j < in.count; j++ {
			e := in.pathEdge[j]
			node := in.base + j
			if w, ok := seed.Get(packCRE(c, in.r, e)); ok {
				bld.AddArc(0, node, w)
			}
			for jdx := range infos {
				in2 := &infos[jdx]
				if in2.r == in.r {
					continue
				}
				dRR := sh.Tree[in2.r].Dist[in.r]
				if dRR < 0 || sh.Anc[in2.r].EdgeOnRootPath(g, e, in.r) {
					continue
				}
				if !ancC.EdgeOnRootPath(g, e, in2.r) {
					bld.AddArc(in2.node, node, dRR)
				} else if j < in2.count {
					bld.AddArc(in2.base+j, node, dRR)
				}
			}
		}
	}
	arcs = bld.NumArcs()
	res = bld.Finalize().Run(0)

	rows = make([][]int32, len(sh.List))
	for _, in := range infos {
		row := make([]int32, in.count)
		for j := range row {
			if d := res.Dist[in.base+int32(j)]; d >= int64(rp.Inf) {
				row[j] = rp.Inf
			} else {
				row[j] = int32(d)
			}
		}
		rows[in.li] = row
	}
	return rows, res, nodes, arcs
}

// compareGc diffs one center's implicit solve against the explicit
// reference ("" means identical) and counts the nodes it left
// unsettled.
func compareGc(sh *ssrp.Shared, ctr *Centers, cl *centerLandmark, c int32, seed *cuckoo.Partitioned, sc *engine.Scratch) (string, int) {
	wantRows, want, wantNodes, wantArcs := referenceGc(sh, ctr, c, seed)
	gc := cl.solveGc(sh, c, seed, sc)
	unsettled := 0
	for _, d := range gc.dist {
		if d == dijkstra.Inf {
			unsettled++
		}
	}
	switch {
	case int(gc.total) != wantNodes:
		return fmt.Sprintf("nodes %d, want %d", gc.total, wantNodes), unsettled
	case int(gc.arcs) != wantArcs:
		return fmt.Sprintf("arcs %d, want %d", gc.arcs, wantArcs), unsettled
	case !slices.Equal(gc.dist, want.Dist):
		return "Dist differs", unsettled
	case !slices.Equal(gc.parent, want.Parent):
		return "Parent differs", unsettled
	}
	rows := gc.rows(len(sh.List))
	for li := range rows {
		if !slices.Equal(rows[li], wantRows[li]) || (rows[li] == nil) != (wantRows[li] == nil) {
			return fmt.Sprintf("row of landmark %d: %v, want %v", sh.List[li], rows[li], wantRows[li]), unsettled
		}
	}
	if sh.Params.TrackPaths && !slices.Equal(gc.prov().parent, want.Parent) {
		return "provenance parent chains differ", unsettled
	}
	return "", unsettled
}

// TestCenterLandmarkMatchesReference pins the implicit §8.2.2 solver to
// the explicit builder + CSR + dijkstra.Run it replaced: for every
// crosscheck family × Parallelism ∈ {1, 2, 8} × TrackPaths on/off, and
// every center, the rows, the Dijkstra's Dist and Parent arrays, the
// node count and the arc count are identical. Identical parents are
// what keeps TrackPaths provenance and compaction unchanged. The
// comparisons fan out over the pool's workers and their scratches, so
// under -race this is also the data-race check for the stage. The arc
// count includes out-arcs of nodes the Dijkstra never settles, which
// the implicit solver counts in a separate pass; the test requires the
// families to exercise that pass.
func TestCenterLandmarkMatchesReference(t *testing.T) {
	unsettled := 0
	for _, f := range pipelineFamilies() {
		t.Run(f.name, func(t *testing.T) {
			for _, par := range []int{1, 2, 8} {
				for _, track := range []bool{false, true} {
					sh, err := ssrp.NewShared(f.g, f.sources, sweepParams(par, track))
					if err != nil {
						t.Fatal(err)
					}
					ctr := newCenters(sh, sh.DeriveRNG())
					var perSrc []*ssrp.PerSource
					for _, s := range f.sources {
						ps := sh.NewPerSource(s)
						ps.BuildSmallNear()
						perSrc = append(perSrc, ps)
					}
					seed, _ := seedTableForTest(sh, ctr, perSrc)
					cl := newCenterLandmark(ctr)
					diffs := make([]string, len(ctr.List))
					unset := make([]int, len(ctr.List))
					sh.Pool.RunScratch(len(ctr.List), func(ci int, sc *engine.Scratch) {
						diffs[ci], unset[ci] = compareGc(sh, ctr, cl, ctr.List[ci], seed, sc)
					})
					for ci, d := range diffs {
						if d != "" {
							t.Fatalf("P=%d track=%v center %d: %s", par, track, ctr.List[ci], d)
						}
						unsettled += unset[ci]
					}
				}
			}
		})
	}
	if unsettled == 0 {
		t.Fatal("no family leaves a G_c node unsettled: the count-only arc pass is untested")
	}
}

// centerLandmarkForTest solves every center's G_c over the pool, as the
// solve's stage C does once each center's seed partition is frozen.
func centerLandmarkForTest(sh *ssrp.Shared, ctr *Centers, seed *cuckoo.Partitioned) *centerLandmark {
	cl := newCenterLandmark(ctr)
	sh.Pool.RunScratch(len(ctr.List), func(ci int, sc *engine.Scratch) {
		cl.solveOne(sh, ci, seed, sc)
	})
	return cl
}

// benchStages builds the repo benchmark's instance shape — a random
// connected graph with n=200, m=800, σ=16 evenly spread sources, at the
// paper's constants — and runs the per-source builds, leaving each
// benchmark to time its own stage.
func benchStages(b *testing.B) (*ssrp.Shared, *Centers, []*ssrp.PerSource) {
	const n, m, sigma = 200, 800, 16
	g := graph.RandomConnected(xrand.New(1), n, m)
	sources := make([]int32, sigma)
	for i := range sources {
		sources[i] = int32(i * n / sigma)
	}
	p := DefaultParams()
	p.Seed = 1
	sh, err := ssrp.NewShared(g, sources, p)
	if err != nil {
		b.Fatal(err)
	}
	ctr := newCenters(sh, sh.DeriveRNG())
	perSrc := make([]*ssrp.PerSource, len(sources))
	for i, s := range sources {
		perSrc[i] = sh.NewPerSource(s)
		perSrc[i].BuildSmallNear()
	}
	return sh, ctr, perSrc
}

// BenchmarkCenterLandmark times the §8.2.2 stage alone — every center's
// G_c solved over the pool — on the benchStages instance. Preprocessing,
// the per-source builds and the seed table are built once outside the
// timed loop.
func BenchmarkCenterLandmark(b *testing.B) {
	sh, ctr, perSrc := benchStages(b)
	seed, _ := seedTableForTest(sh, ctr, perSrc)
	b.ReportAllocs()
	var cl *centerLandmark
	for b.Loop() {
		cl = centerLandmarkForTest(sh, ctr, seed)
	}
	b.ReportMetric(float64(cl.NumArcs()), "arcs/op")
}

// BenchmarkSourceCenter times the §8.1 stage alone — every source's
// G_s built and solved over the pool — on the benchStages instance,
// with the §7.1 graphs built outside the timed loop.
func BenchmarkSourceCenter(b *testing.B) {
	sh, ctr, perSrc := benchStages(b)
	scs := make([]*sourceCenter, len(perSrc))
	b.ReportAllocs()
	for b.Loop() {
		sh.Pool.RunScratch(len(perSrc), func(i int, sc *engine.Scratch) {
			scs[i] = buildSourceCenter(perSrc[i], ctr, sc)
		})
	}
	arcs := 0
	for _, sc := range scs {
		arcs += sc.NumArcs
	}
	b.ReportMetric(float64(arcs), "arcs/op")
}

// BenchmarkAssembly times the per-source assembly alone on the
// benchStages instance: assembleLenSR, then sweepLandmarks, then the
// final Combine, per source over the pool — the three stages run in
// that order, so a CPU profile separates them. The §8.1 and §8.2
// outputs are built once outside the timed loop.
func BenchmarkAssembly(b *testing.B) {
	sh, ctr, perSrc := benchStages(b)
	scs := make([]*sourceCenter, len(perSrc))
	sh.Pool.RunScratch(len(perSrc), func(i int, sc *engine.Scratch) {
		scs[i] = buildSourceCenter(perSrc[i], ctr, sc)
	})
	seed, _ := seedTableForTest(sh, ctr, perSrc)
	cl := centerLandmarkForTest(sh, ctr, seed)
	stats := make([]ssrp.Stats, len(perSrc))
	b.ReportAllocs()
	for b.Loop() {
		sh.Pool.RunScratch(len(perSrc), func(i int, sc *engine.Scratch) {
			ps := perSrc[i]
			ps.SetLenSR(assembleLenSR(ps, ctr, scs[i], cl, sc))
			sweepLandmarks(ps, maxSweeps)
			stats[i] = ssrp.Stats{}
			ps.Combine(&stats[i])
		})
	}
	var scans int64
	for _, st := range stats {
		scans += st.NearLargeScans + st.FarScans
	}
	b.ReportMetric(float64(scans), "scans/op")
}
