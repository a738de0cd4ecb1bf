package msrp

import (
	"msrp/internal/engine"
	"msrp/internal/lca"
	"msrp/internal/rp"
	"msrp/internal/ssrp"
)

// sourceCenter holds the §8.1 output for one source s: replacement path
// lengths d(s, c, e) from s to every center c, for every edge e among
// the last Budget(priority(c)) edges of the canonical s→c path (the
// edges "nearest c", which are the only ones the MTC assembly ever
// queries — Lemma 18/20).
type sourceCenter struct {
	ps  *ssrp.PerSource
	ctr *Centers

	// start[ci] is the first covered path-edge index for center c =
	// ctr.List[ci] (max(0, |sc| − budget)); rows[ci][i−start[ci]] =
	// d(s,c,e_i). rows[ci] is nil for c == s and unreachable c.
	start []int32
	rows  [][]int32

	// prov retains the G_s parent chains and node decode tables under
	// Params.TrackPaths, so the provenance plane can expand a d(s,c,e)
	// value into the concrete walk its Dijkstra found. nil otherwise.
	prov *auxProv

	// Aux-graph size counters for the E9 experiment.
	NumNodes int
	NumArcs  int
}

// buildSourceCenter constructs the §8.1 auxiliary graph G_s and solves
// it with one Dijkstra run.
//
// Node space: [s] (the source, node 0), [c] per center, [c,e] per
// covered (center, path-edge) pair. Arc types, each a sound
// e-avoiding-walk extension (Lemma 20's case analysis):
//
//	[s]  → [c]      weight |sc|             (canonical path)
//	[s]  → [c,e]    weight w_small(c, e)    (§7.1 small-near value)
//	[c'] → [c,e]    weight |c'c|            if e ∉ sc' and e ∉ c'c
//	[c',e] → [c,e]  weight |c'c|            if [c',e] exists and e ∉ c'c
//
// The index identity from the shared-prefix property applies: an edge e
// of T_s on both the s→c and s→c' canonical paths has the same 0-based
// index i on both, so [c',e] is c”s block at offset i−start[c'].
func buildSourceCenter(ps *ssrp.PerSource, ctr *Centers, scr *engine.Scratch) *sourceCenter {
	g := ps.Sh.G
	ts := ps.Ts
	sc := &sourceCenter{
		ps:    ps,
		ctr:   ctr,
		start: make([]int32, len(ctr.List)),
		rows:  make([][]int32, len(ctr.List)),
	}

	// Node layout: 0 = [s]; 1..|C| = [c]; then per-center [c,e] blocks.
	type centerInfo struct {
		c     int32
		ci    int32 // position in ctr.List
		node  int32 // [c] node id
		base  int32 // first [c,e] node id
		start int32 // first covered path-edge index
		count int32
		dist  int32    // |sc|
		spanS lca.Span // c's T_s span
		// pathDown[i-start] is the T_s child endpoint of covered edge
		// e_i, i = start..|sc|-1.
		pathDown []int32
	}
	infos := make([]centerInfo, 0, len(ctr.List))
	next := int32(1)
	for ci, c := range ctr.List {
		if c == ps.S || !ts.Reachable(c) {
			continue
		}
		infos = append(infos, centerInfo{c: c, ci: int32(ci), node: next, dist: ts.Dist[c], spanS: ps.ViewS.Span(c)})
		next++
	}
	for idx := range infos {
		in := &infos[idx]
		l := in.dist
		b := ctr.Budget(ctr.Priority(in.c))
		start := l - b
		if start < 0 {
			start = 0
		}
		in.start = start
		in.count = l - start
		in.base = next
		next += in.count
		// Walk up from c collecting the covered suffix of the path.
		in.pathDown = scr.Int32(int(in.count))
		x := in.c
		for i := l - 1; i >= start; i-- {
			in.pathDown[i-start] = x
			x = ts.Parent[x]
		}
		sc.start[in.ci] = start
	}
	total := int(next)

	bld := ssrp.AttachedBuilder(scr, total, total*4)
	// [s] → [c] arcs.
	for idx := range infos {
		bld.AddArc(0, infos[idx].node, ts.Dist[infos[idx].c])
	}
	// Per [c,e] arcs.
	for idx := range infos {
		in := &infos[idx]
		for off := int32(0); off < in.count; off++ {
			i := in.start + off
			// e's endpoints and its T_s child's span, read once per
			// edge rather than once per predecessor center.
			x := in.pathDown[off]
			e := lca.EdgeOf(g, ts.ParentEdge[x])
			xs := ps.ViewS.Span(x)
			node := in.base + off
			// [s] → [c,e] with the §7.1 small value (target = c).
			if w := ps.Small.Value(in.c, int(i)); w < rp.Inf {
				bld.AddArc(0, node, w)
			}
			// [c'] and [c',e] predecessors.
			for jdx := range infos {
				if jdx == idx {
					continue
				}
				in2 := &infos[jdx]
				w := &ctr.views[in2.ci]
				d2c := w.Dist[in.c] // |c'c|
				if d2c < 0 {
					continue
				}
				if w.OnPath(e, w.Span(in.c)) {
					continue // e on the canonical c'→c path
				}
				if !xs.Contains(in2.spanS) {
					// e not on s→c': the [c'] node's canonical prefix
					// avoids e.
					bld.AddArc(in2.node, node, d2c)
				} else if i >= in2.start && i < in2.dist {
					// e on s→c' within c''s covered block.
					bld.AddArc(in2.base+(i-in2.start), node, d2c)
				}
			}
		}
	}
	sc.NumNodes = total
	sc.NumArcs = bld.NumArcs()
	// G_s is build-run-discard (only the rows below survive), so both
	// the CSR and the Dijkstra result live in the worker scratch.
	res := bld.FinalizeScratch(scr).RunScratch(0, scr)

	for idx := range infos {
		in := &infos[idx]
		row := make([]int32, in.count)
		for off := int32(0); off < in.count; off++ {
			d := res.Dist[in.base+off]
			if d >= int64(rp.Inf) {
				row[off] = rp.Inf
			} else {
				row[off] = int32(d)
			}
		}
		sc.rows[in.ci] = row
	}
	if ps.TrackPaths {
		ap := &auxProv{
			parent:  append([]int32(nil), res.Parent...),
			nodeOwn: make([]int32, total),
			nodeIdx: make([]int32, total),
			base:    make(map[int32]int32, len(infos)),
			start:   make(map[int32]int32, len(infos)),
		}
		ap.nodeOwn[0], ap.nodeIdx[0] = -1, -1
		for idx := range infos {
			in := &infos[idx]
			ap.nodeOwn[in.node], ap.nodeIdx[in.node] = in.c, -1
			ap.base[in.c], ap.start[in.c] = in.base, in.start
			for off := int32(0); off < in.count; off++ {
				ap.nodeOwn[in.base+off] = in.c
				ap.nodeIdx[in.base+off] = in.start + off
			}
		}
		sc.prov = ap
	}
	return sc
}

// dSC returns d(s, c, e) for path edge e with shared-prefix index i,
// given xs, the T_s span of e's child endpoint: the canonical |sc| when
// e is off the s→c path, the §8.1 value when covered, rp.Inf when
// outside the budget (the lemmas make that case irrelevant w.h.p.).
func (sc *sourceCenter) dSC(c int32, i int, xs lca.Span) int32 {
	ps := sc.ps
	if c == ps.S {
		return 0
	}
	dc := ps.ViewS.Dist[c]
	if dc < 0 {
		return rp.Inf
	}
	if !xs.Contains(ps.ViewS.Span(c)) {
		return dc
	}
	ci := sc.ctr.Index(c)
	if ci < 0 || int32(i) < sc.start[ci] {
		return rp.Inf
	}
	row := sc.rows[ci]
	off := int32(i) - sc.start[ci]
	if off >= int32(len(row)) {
		return rp.Inf
	}
	return row[off]
}
