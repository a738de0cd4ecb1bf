package ssrp

import (
	"msrp/internal/bfs"
	"msrp/internal/classic"
	"msrp/internal/engine"
	"msrp/internal/lca"
	"msrp/internal/rp"
)

// PerSource carries the per-source state of the solver: the canonical
// tree T_s, the §7.1 small-near solution, and the replacement-path
// lengths from s to every landmark (filled by the classical algorithm
// in the single-source case, or by the §8 machinery in the multi-source
// case).
type PerSource struct {
	Sh   *Shared
	S    int32
	Ts   *bfs.Tree
	AncS *lca.Ancestry
	// ViewS is T_s as a view. The scans test "e_i on s→v" for a path
	// edge e_i of T_s, whose child endpoint x is known: that is
	// ViewS.Span(x).Contains(ViewS.Span(v)), with x's span hoisted.
	ViewS lca.View

	// Small answers the §7.1 queries; built by BuildSmallNear.
	Small *SmallNear

	// LenSR[r][i] = d(s, r, e_i) for the i-th edge of the canonical s→r
	// path. nil rows mean r is unreachable from s (or r == s).
	LenSR map[int32][]int32

	// TrackPaths enables provenance recording so ReconstructPath can
	// expand answers into concrete paths. The single-source pipeline
	// pairs it with classic crossing-edge witnesses; the multi-source
	// pipeline installs its §8 provenance plane via SetLandmarkPath.
	TrackPaths bool

	// Snap is the immutable §7.1 witness snapshot ReconstructPath
	// expands small answers from. It is taken before the heavyweight
	// path state is released (SnapshotProvenance), so reconstruction
	// keeps working under the MSRP pipeline's memory discipline.
	Snap *ProvSnapshot

	witness map[int32][]classic.Witness

	// landmarkPath, when set, expands the replacement path realizing
	// LenSR[r][i] — an s→r walk avoiding e_i of exactly that length.
	// The single-source solver leaves it nil (the classic witnesses in
	// `witness` serve that role); the MSRP solver installs its §8
	// provenance explain here.
	landmarkPath func(r int32, i int) ([]int32, error)

	prov [][]provEntry
}

// SetLandmarkPath installs the landmark-prefix expander ReconstructPath
// uses for answers won through a landmark (the multi-source provenance
// plane).
func (ps *PerSource) SetLandmarkPath(fn func(r int32, i int) ([]int32, error)) {
	ps.landmarkPath = fn
}

// ProvenanceBytes returns the per-source footprint of the retained
// provenance state — everything a tracked result keeps alive that an
// untracked result would have dropped: the §7.1 witness snapshot and
// the Value-lookup plane it reads, the per-answer provenance entries,
// the LenSR rows the explain machinery re-walks, and (single-source
// mode) the classic witnesses. Shared preprocessing (the landmark
// forest in Shared) is not charged: it outlives the result either way.
func (ps *PerSource) ProvenanceBytes() int64 {
	if !ps.TrackPaths {
		return 0
	}
	var b int64
	if ps.Snap != nil {
		b += ps.Snap.Bytes()
	}
	if ps.Small != nil {
		b += ps.Small.LookupStateBytes()
	}
	for _, row := range ps.prov {
		b += int64(len(row)) * 8 // kind + landmark id, padded
	}
	for _, ws := range ps.witness {
		b += int64(len(ws)) * 8 // two int32 endpoints
	}
	for _, row := range ps.LenSR {
		b += 4*int64(len(row)) + 16 // row + map-entry overhead
	}
	return b
}

// NewPerSource prepares per-source state. The source must be one of the
// sources given to NewShared (sources are forced landmarks, so their
// trees and ancestries are already built).
func (sh *Shared) NewPerSource(s int32) *PerSource {
	ts := sh.Tree[s]
	if ts == nil {
		panic("ssrp: source was not preprocessed; pass it to NewShared")
	}
	return &PerSource{
		Sh:    sh,
		S:     s,
		Ts:    ts,
		AncS:  sh.Anc[s],
		ViewS: sh.Views[sh.pos[s]],
	}
}

// BuildSmallNear constructs and solves the §7.1 auxiliary graph.
func (ps *PerSource) BuildSmallNear() {
	ps.Small = buildSmallNear(ps, nil)
}

// BuildSmallNearScratch is BuildSmallNear reusing a per-worker scratch
// for the transient arc-builder arrays (the MSRP per-source fan-out).
func (ps *PerSource) BuildSmallNearScratch(sc *engine.Scratch) {
	ps.Small = buildSmallNear(ps, sc)
}

// ComputeLenSRClassic fills LenSR by running the classical single-pair
// replacement path algorithm from s to every landmark — the paper's
// single-source strategy (§3): Õ(m+n) per landmark, Õ(m√n) total.
// Landmarks are independent, so the runs shard across the instance
// pool, each worker reusing one scratch for the per-landmark O(n+m)
// working state. With TrackPaths set each run also stores the
// crossing-edge witnesses (same lengths, same sharding).
func (ps *PerSource) ComputeLenSRClassic() {
	ps.ComputeLenSRClassicPool(ps.Sh.Pool)
}

// ComputeLenSRClassicPool is ComputeLenSRClassic on an explicit engine
// pool. Callers that already fan out one level up — the Oracle's batch
// builder runs whole sources in parallel — pass a sequential pool here
// to keep the parallelism single-level.
func (ps *PerSource) ComputeLenSRClassicPool(pool *engine.Pool) {
	sh := ps.Sh
	rows := make([][]int32, len(sh.List))
	var wits [][]classic.Witness
	if ps.TrackPaths {
		wits = make([][]classic.Witness, len(sh.List))
	}
	pool.RunScratch(len(sh.List), func(i int, sc *engine.Scratch) {
		r := sh.List[i]
		if r == ps.S || !ps.Ts.Reachable(r) {
			return
		}
		if ps.TrackPaths {
			rows[i], wits[i] = classic.PairWitnessScratch(sh.G, ps.Ts, sh.Tree[r], r, sc)
		} else {
			rows[i] = classic.PairScratch(sh.G, ps.Ts, sh.Tree[r], r, sc)
		}
	})
	ps.LenSR = make(map[int32][]int32, len(sh.List))
	if ps.TrackPaths {
		ps.witness = make(map[int32][]classic.Witness, len(sh.List))
	}
	for i, r := range sh.List {
		if rows[i] != nil {
			ps.LenSR[r] = rows[i]
			if wits != nil {
				ps.witness[r] = wits[i]
			}
		}
	}
}

// SetLenSR installs externally computed landmark replacement lengths
// (the MSRP §8 pipeline). Rows follow the same convention as
// ComputeLenSRClassic.
func (ps *PerSource) SetLenSR(lenSR map[int32][]int32) {
	ps.LenSR = lenSR
}

// dSR returns d(s, r, e) where e is the path edge with index i on any
// canonical path through it and xs is the T_s span of e's child
// endpoint. Three cases:
//   - r == s: the empty path avoids everything — 0.
//   - e not on the canonical s→r path (r outside xs): the canonical
//     path itself avoids e — |sr|.
//   - otherwise the precomputed replacement length (index identity: e's
//     index on the s→r path is also i).
func (ps *PerSource) dSR(r int32, i int, xs lca.Span) int32 {
	if r == ps.S {
		return 0
	}
	dr := ps.ViewS.Dist[r]
	if dr < 0 {
		return inf
	}
	if !xs.Contains(ps.ViewS.Span(r)) {
		return dr
	}
	row := ps.LenSR[r]
	if row == nil || i >= len(row) {
		return inf
	}
	return row[i]
}

// DSR exposes dSR for the multi-source provenance plane, which re-walks
// the candidate space to explain a winning value.
func (ps *PerSource) DSR(r int32, i int, xs lca.Span) int32 { return ps.dSR(r, i, xs) }

// Combine runs the per-target assembly (§6 far edges via Algorithm 3,
// §7.2 near-large via Algorithm 4, §7.1 small-near lookups, plus the
// free direct fill for landmark targets) and returns the full result.
func (ps *PerSource) Combine(stats *Stats) *rp.Result {
	sh := ps.Sh
	g := sh.G
	res := rp.NewResult(ps.Ts)
	if ps.TrackPaths {
		ps.prov = make([][]provEntry, g.NumVertices())
	}

	for t := int32(0); t < int32(g.NumVertices()); t++ {
		l := ps.Ts.Dist[t]
		if t == ps.S || l <= 0 {
			continue
		}
		row := res.Len[t]
		if stats != nil {
			stats.Queries += int64(l)
		}
		var provRow []provEntry
		if ps.TrackPaths {
			provRow = make([]provEntry, l)
			ps.prov[t] = provRow
		}

		// Landmark targets come for free: LenSR already holds every
		// edge of their canonical path (exactly, in the σ=1 case).
		if direct := ps.LenSR[t]; direct != nil {
			for i := range row {
				if direct[i] < row[i] {
					row[i] = direct[i]
					if provRow != nil {
						provRow[i] = provEntry{kind: provDirect, r: t}
					}
				}
			}
		}
		ps.combineTarget(t, row, provRow, stats)
	}
	return res
}

// CombineTarget lowers row[i] (the current bound on d(s,t,e_i)) using
// the per-edge candidate machinery: §7.1 small values and Algorithm 4
// for near edges, Algorithm 3 for far edges. The row must have
// Ts.Dist[t] entries. Exposed separately because the MSRP pipeline
// applies it to landmark targets as a fixpoint sweep over LenSR.
func (ps *PerSource) CombineTarget(t int32, row []int32, stats *Stats) {
	ps.combineTarget(t, row, nil, stats)
}

func (ps *PerSource) combineTarget(t int32, row []int32, provRow []provEntry, stats *Stats) {
	sh := ps.Sh
	l := ps.Ts.Dist[t]
	x := t // x = x_{i+1}: child endpoint of e_i during the walk
	for i := l - 1; i >= 0; i-- {
		// e_i's endpoints and x's T_s span are read once here, not once
		// per scanned landmark.
		e := lca.EdgeOf(sh.G, ps.Ts.ParentEdge[x])
		xs := ps.ViewS.Span(x)
		distFromT := l - i
		if k := sh.farBand(distFromT); k < 0 {
			ps.combineNear(t, int(i), e, xs, row, provRow, stats)
		} else {
			ps.combineFar(t, int(i), e, xs, k, row, provRow, stats)
		}
		x = ps.Ts.Parent[x]
	}
}

// combineNear handles a near edge: the §7.1 small value plus
// Algorithm 4's scan of L_0 for large replacement paths.
func (ps *PerSource) combineNear(t int32, i int, e lca.Edge, xs lca.Span, row []int32, provRow []provEntry, stats *Stats) {
	if v := ps.Small.Value(t, i); v < row[i] {
		row[i] = v
		if provRow != nil {
			provRow[i] = provEntry{kind: provSmall}
		}
	}
	sh := ps.Sh
	for _, li := range sh.levelPos[0] {
		if stats != nil {
			stats.NearLargeScans++
		}
		w := &sh.Views[li]
		dt := w.Dist[t]
		if dt < 0 {
			continue
		}
		// Lemma 13 guarantees a useful r has e off its canonical path;
		// checking it also keeps the candidate sound unconditionally.
		if w.OnPath(e, w.Span(t)) {
			continue
		}
		r := sh.List[li]
		d := ps.dSR(r, i, xs)
		if d >= inf {
			continue
		}
		if cand := d + dt; cand < row[i] {
			row[i] = cand
			if provRow != nil {
				provRow[i] = provEntry{kind: provVia, r: r}
			}
		}
	}
}

// combineFar handles a k-far edge via Algorithm 3: scan L_k for
// landmarks within the band's distance threshold of t.
func (ps *PerSource) combineFar(t int32, i int, e lca.Edge, xs lca.Span, k int, row []int32, provRow []provEntry, stats *Stats) {
	sh := ps.Sh
	thr := sh.farThreshold(k)
	for _, li := range sh.bandPos(k) {
		if stats != nil {
			stats.FarScans++
		}
		w := &sh.Views[li]
		dt := w.Dist[t]
		if dt < 0 || float64(dt) > thr {
			continue
		}
		// The distance argument (d(e,t) ≥ 2·thr) already implies no
		// shortest r→t path uses e; the explicit check makes soundness
		// independent of the floating-point band arithmetic.
		if w.OnPath(e, w.Span(t)) {
			continue
		}
		r := sh.List[li]
		d := ps.dSR(r, i, xs)
		if d >= inf {
			continue
		}
		if cand := d + dt; cand < row[i] {
			row[i] = cand
			if provRow != nil {
				provRow[i] = provEntry{kind: provVia, r: r}
			}
		}
	}
}
