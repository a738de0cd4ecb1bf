package msrp

import (
	"sort"
	"testing"

	"msrp/internal/cuckoo"
	"msrp/internal/graph"
	"msrp/internal/rp"
	"msrp/internal/ssrp"
	"msrp/internal/xrand"
)

// sweepParams is the determinism sweep's configuration: testParams(77)
// at the given worker count, with path tracking on or off.
func sweepParams(par int, track bool) ssrp.Params {
	p := testParams(77)
	p.Parallelism = par
	p.TrackPaths = track
	return p
}

// solveAt runs the full solve under sweepParams and returns the
// Solution (so tests can reach the provenance plane's seed table).
func solveAt(t *testing.T, g *graph.Graph, sources []int32, par int, track bool) *Solution {
	t.Helper()
	sh, err := ssrp.NewShared(g, sources, sweepParams(par, track))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := SolveShared(sh)
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

// TestSchedulesBitIdentical is the solve's determinism and exactness
// sweep. How the pipeline interleaves builds, seed merges and §8.2.2
// solves changes with the worker count; for every family at
// Parallelism ∈ {1, 2, 8}, with path tracking off and on, every result
// must equal the P=1 untracked solve bit for bit, and that solve must
// equal the brute-force naive.SSRP table. CI runs this under -race, so
// it doubles as the data-race proof for the scatter/freeze hand-off
// and the ready-queue drain.
func TestSchedulesBitIdentical(t *testing.T) {
	for _, f := range pipelineFamilies() {
		t.Run(f.name, func(t *testing.T) {
			baseline := solveAt(t, f.g, f.sources, 1, false)
			requireNaiveExact(t, f.g, f.sources, baseline.Results)
			for _, par := range []int{1, 2, 8} {
				for _, track := range []bool{false, true} {
					sol := solveAt(t, f.g, f.sources, par, track)
					for i := range sol.Results {
						if d := rp.Diff(baseline.Results[i], sol.Results[i]); d != "" {
							t.Fatalf("P=%d track=%v: source %d differs: %s",
								par, track, f.sources[i], d)
						}
					}
				}
			}
		})
	}
}

// seedLayouts pins each pipelineFamilies instance's seed table at
// testParams(77): its entry count and cuckoo.Partitioned.Fingerprint,
// which is sensitive to slot-level layout. Recorded from the
// sequential reference fold; a change means the §8.2.1 enumeration,
// the partition routing or the fold order moved.
var seedLayouts = map[string]struct {
	fingerprint uint64
	entries     int
}{
	"erdos-renyi-sparse": {0xf71a45622ec64a43, 1792},
	"erdos-renyi-dense":  {0x42d3682995966be1, 298},
	"grid-4x9":           {0x776eca7df1d64c7, 2466},
	"path-with-chords":   {0xa151335f82182faf, 4335},
	"cycle-with-chords":  {0xa65aee0d130b3d7, 3495},
	"barbell":            {0x43d4e8c8c04abfc7, 172},
	"path-star-mix":      {0xfb6aa51c33f0e242, 9936},
}

// TestStreamingMergeContentsAndLayout pins the streaming merge's two
// determinism contracts. Contents: the partitioned table holds exactly
// the per-key minimum over all shards (MinPut is commutative and
// idempotent, so scatter order cannot matter). Layout: the partition
// fold order is a pure function of the instance, so the Partitioned
// fingerprint equals the recorded constant for the sequential
// reference fold and for the solve at every worker count.
func TestStreamingMergeContentsAndLayout(t *testing.T) {
	for _, f := range pipelineFamilies() {
		t.Run(f.name, func(t *testing.T) {
			want, ok := seedLayouts[f.name]
			if !ok {
				t.Fatalf("no recorded seed layout for family %q", f.name)
			}
			sh, err := ssrp.NewShared(f.g, f.sources, testParams(77))
			if err != nil {
				t.Fatal(err)
			}
			ctr := newCenters(sh, sh.DeriveRNG())
			shards := make([]*cuckoo.Table, len(f.sources))
			minFold := map[uint64]int32{}
			for i, s := range f.sources {
				ps := sh.NewPerSource(s)
				ps.BuildSmallNear()
				shards[i] = buildSeedShard(ps, ctr, engineScratch())
				shards[i].Range(func(key uint64, val int32) bool {
					if old, ok := minFold[key]; !ok || val < old {
						minFold[key] = val
					}
					return true
				})
			}
			ref := mergeSeedShardsPartitioned(sh, ctr, shards)

			if ref.Len() != len(minFold) {
				t.Fatalf("partitioned merge has %d entries, min-fold %d", ref.Len(), len(minFold))
			}
			for key, val := range minFold {
				if got, ok := ref.Get(key); !ok || got != val {
					t.Fatalf("key %x: partitioned %d,%v, min-fold %d", key, got, ok, val)
				}
			}
			if got := ref.Fingerprint(); got != want.fingerprint || ref.Len() != want.entries {
				t.Fatalf("reference fold: fingerprint %#x with %d entries, recorded %#x with %d",
					got, ref.Len(), want.fingerprint, want.entries)
			}

			// The solve's retained seed table (TrackPaths keeps it) must
			// reproduce the recorded layout at every worker count.
			for _, par := range []int{1, 2, 8} {
				sol := solveAt(t, f.g, f.sources, par, true)
				if got := sol.Prov.seed.Fingerprint(); got != want.fingerprint {
					t.Fatalf("P=%d: partitioned layout fingerprint %#x, recorded %#x", par, got, want.fingerprint)
				}
			}
		})
	}
}

// TestSeedPlanReadinessSound verifies the contribution map's soundness
// directly: every entry a source actually enumerates belongs to a
// center (and partition) the readiness analysis registered that source
// for. An unregistered entry would mean a partition could freeze while
// a future contributor was still running — the exact unsoundness the
// scatter-time panic guards in production.
func TestSeedPlanReadinessSound(t *testing.T) {
	for _, f := range pipelineFamilies() {
		t.Run(f.name, func(t *testing.T) {
			sh, err := ssrp.NewShared(f.g, f.sources, testParams(77))
			if err != nil {
				t.Fatal(err)
			}
			ctr := newCenters(sh, sh.DeriveRNG())
			pl := newSeedPlan(sh, ctr)
			entries := 0
			for i, s := range f.sources {
				ps := sh.NewPerSource(s)
				ps.BuildSmallNear()
				shard := buildSeedShard(ps, ctr, engineScratch())
				centers, parts := pl.srcCenters[i], pl.srcParts[i]
				shard.Range(func(key uint64, _ int32) bool {
					entries++
					c := int32(key >> (vertexBits + edgeBits))
					ci := ctr.Index(c)
					if ci < 0 {
						t.Fatalf("source %d: entry %x names non-center %d", s, key, c)
					}
					at := sort.Search(len(centers), func(k int) bool { return centers[k] >= ci })
					if at >= len(centers) || centers[at] != ci {
						t.Fatalf("source %d: center %d (index %d) not in contribution map", s, c, ci)
					}
					p := int32(pl.parts.Part(key))
					at = sort.Search(len(parts), func(k int) bool { return parts[k] >= p })
					if at >= len(parts) || parts[at] != p {
						t.Fatalf("source %d: partition %d not registered", s, p)
					}
					return true
				})
			}
			if entries == 0 {
				t.Fatal("no seed entries enumerated — soundness test exercised nothing")
			}
		})
	}
}

// twoIslands builds a deliberately disconnected instance: a chorded
// path holding every source, plus a second component at the top of the
// id space that no source can reach. Centers sampled in the far island
// have zero possible contributors, so the readiness analysis must
// release their §8.2.2 builds at t=0 — before any source has even
// built — which makes CentersReady deterministically positive at every
// parallelism, 1 CPU included.
func twoIslands() (*graph.Graph, []int32) {
	rng := xrand.New(404)
	b := graph.NewBuilder(96)
	near := graph.PathWithChords(rng, 64, 10)
	for e := 0; e < near.NumEdges(); e++ {
		u, v := near.EdgeEndpoints(e)
		if err := b.AddEdge(int(u), int(v)); err != nil {
			panic(err)
		}
	}
	for v := 64; v < 95; v++ {
		if err := b.AddEdge(v, v+1); err != nil {
			panic(err)
		}
	}
	return b.MustBuild(), []int32{0, 21, 42, 63}
}

// TestStreamingReadinessFiresEarly: on the two-islands instance the
// far island's centers are ready before any source retires, the stats
// report them, and the results still equal the brute-force tables.
func TestStreamingReadinessFiresEarly(t *testing.T) {
	g, sources := twoIslands()
	for _, par := range []int{1, 2} {
		sol := solveAt(t, g, sources, par, false)
		requireNaiveExact(t, g, sources, sol.Results)
		if sol.Stats.CentersReady == 0 {
			t.Errorf("P=%d: CentersReady = 0; far-island centers should be ready at t=0", par)
		}
		if sol.Stats.SeedRehashes != 0 {
			t.Errorf("P=%d: SeedRehashes = %d, presized folds should never cascade", par, sol.Stats.SeedRehashes)
		}
	}
}
