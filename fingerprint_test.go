package msrp

// Bit-identity pins: SHA-256 fingerprints of everything a solve
// produces on a few small fixed instances at the paper's constants —
// every length table, every tracked replacement-path expansion, every
// Oracle path answer after a compacted tracked Warm — and the combine
// and §8.2 work counters. A performance refactor of a hot loop must
// leave them all unchanged: a moved scan order, tie rule or provenance
// entry shows up here even where the answers stay exact. Recompute the
// constants only for a change meant to alter answers, paths or counts.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"msrp/internal/graph"
	msrpcore "msrp/internal/msrp"
	"msrp/internal/xrand"
)

type fingerprintCase struct {
	name    string
	g       *graph.Graph
	sources []int
	// Expected fingerprints (hex SHA-256).
	lengths, paths, oracle string
	// Expected NearLargeScans, FarScans, CLArcs, SeedCount.
	counts [4]int64
}

func fingerprintCases() []fingerprintCase {
	return []fingerprintCase{
		{
			name:    "random-n120-m400-sigma8",
			g:       graph.RandomConnected(xrand.New(7), 120, 400),
			sources: []int{0, 15, 30, 45, 60, 75, 90, 105},
			lengths: "e0ca2c699b478914d15f98f8103b98dd9078d6ea71820ec484172893faab1c5f",
			paths:   "5f9a9c248337491010f0ac521146a38eaa37a7c88b779a353ad4c9ee6628ab2a",
			oracle:  "5f9a9c248337491010f0ac521146a38eaa37a7c88b779a353ad4c9ee6628ab2a",
			counts:  [4]int64{299160, 0, 4191354, 7710},
		},
		{
			name:    "cycle-with-chords-n64-sigma16",
			g:       graph.CycleWithChords(xrand.New(13), 64, 2),
			sources: everyKth(64, 4),
			lengths: "0e547de50d506c53784499ccaeb233daf0d9c51b01aabeed2d22fcf9cf56c0f3",
			paths:   "aea41a3aee9ebaf59e16dea0c9e5bd7cdf614567615c90074cc4cf69ecb4ed56",
			oracle:  "aea41a3aee9ebaf59e16dea0c9e5bd7cdf614567615c90074cc4cf69ecb4ed56",
			counts:  [4]int64{712512, 2816, 1841806, 99653},
		},
		{
			name:    "path-with-chords-n72-sigma12",
			g:       graph.PathWithChords(xrand.New(11), 72, 2),
			sources: everyKth(72, 6),
			lengths: "0071ef0b566e6cee479053fef46871258037f041503958a8ef32548c34ccef04",
			paths:   "d09346e63830c9fa0858e677056a4b4f3de0d11444004dc355c72858a7801377",
			oracle:  "d09346e63830c9fa0858e677056a4b4f3de0d11444004dc355c72858a7801377",
			counts:  [4]int64{1079208, 130536, 3568650, 10739},
		},
	}
}

// everyKth returns the sources 0, k, 2k, … below n.
func everyKth(n, k int) []int {
	var s []int
	for v := 0; v < n; v += k {
		s = append(s, v)
	}
	return s
}

func hashInt(h hash.Hash, v int64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	h.Write(buf[:])
}

// hashPath folds one expansion into h: the vertex sequence, a nil
// marker, or the error text.
func hashPath(h hash.Hash, p []int32, err error) {
	switch {
	case err != nil:
		h.Write([]byte("E" + err.Error()))
	case p == nil:
		h.Write([]byte("N"))
	default:
		hashInt(h, int64(len(p)))
		for _, v := range p {
			hashInt(h, int64(v))
		}
	}
}

func sum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// TestSolveFingerprints recomputes each fingerprint and work counter
// and compares it with the recorded constant.
func TestSolveFingerprints(t *testing.T) {
	for _, c := range fingerprintCases() {
		t.Run(c.name, func(t *testing.T) {
			g := WrapGraph(c.g)
			opts := DefaultOptions()
			opts.Seed = 5
			opts.Parallelism = 2
			opts.TrackPaths = true
			srcs := make([]int32, len(c.sources))
			for i, s := range c.sources {
				srcs[i] = int32(s)
			}
			sol, err := msrpcore.Solve(c.g, srcs, opts.params())
			if err != nil {
				t.Fatal(err)
			}

			lengths, paths := sha256.New(), sha256.New()
			for i, res := range sol.Results {
				r := wrapResult(c.g, res)
				r.ps = sol.PerSource[i]
				for v := 0; v < c.g.NumVertices(); v++ {
					row := res.Len[v]
					hashInt(lengths, int64(len(row)))
					for j, l := range row {
						hashInt(lengths, int64(l))
						path, err := r.ReplacementPath(v, j)
						hashPath(paths, path, err)
					}
				}
			}

			st := sol.Stats
			if counts := [4]int64{st.NearLargeScans, st.FarScans, st.CLArcs, int64(st.SeedCount)}; counts != c.counts {
				t.Errorf("NearLargeScans, FarScans, CLArcs, SeedCount = %v, want %v", counts, c.counts)
			}

			o, err := NewOracle(g, c.sources, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := o.Warm(); err != nil {
				t.Fatal(err)
			}
			if o.Stats().ProvenanceCompactedBytes == 0 {
				t.Fatal("tracked Warm did not compact")
			}
			oracle := sha256.New()
			for _, s := range c.sources {
				res := o.Result(s)
				for v := 0; v < c.g.NumVertices(); v++ {
					p := res.PathTo(v)
					for j := 0; j+1 < len(p); j++ {
						path, err := o.QueryPath(s, v, int(p[j]), int(p[j+1]))
						hashPath(oracle, path, err)
					}
				}
			}

			got := [3]string{sum(lengths), sum(paths), sum(oracle)}
			want := [3]string{c.lengths, c.paths, c.oracle}
			names := [3]string{"lengths", "paths", "oracle"}
			for k := range got {
				if got[k] != want[k] {
					t.Errorf("%s fingerprint %s, want %s", names[k], got[k], want[k])
				}
			}
		})
	}
}
