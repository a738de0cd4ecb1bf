package msrp

import (
	"fmt"
	"sync/atomic"
	"time"

	"msrp/internal/cuckoo"
	"msrp/internal/dijkstra"
	"msrp/internal/engine"
	"msrp/internal/lca"
	"msrp/internal/pqueue"
	"msrp/internal/rp"
	"msrp/internal/ssrp"
)

// Key packing for the (center, landmark, edge) seed table (§8.2.1).
// 21 bits for each vertex id and 22 for the edge id fit exactly in 64.
const (
	vertexBits = 21
	edgeBits   = 22
	maxVertex  = 1 << vertexBits
	maxEdge    = 1 << edgeBits
)

func packCRE(c, r, e int32) uint64 {
	return uint64(c)<<(vertexBits+edgeBits) | uint64(r)<<edgeBits | uint64(e)
}

// checkPackable rejects graphs too large for the 64-bit key layout
// (2M vertices / 4M edges — far beyond anything this harness runs).
func checkPackable(n, m int) error {
	if n >= maxVertex || m >= maxEdge {
		return fmt.Errorf("msrp: graph too large for key packing (n=%d m=%d)", n, m)
	}
	return nil
}

// buildSeedShard implements §8.2.1 for one source: enumerate every
// small replacement path from the source to every landmark (the §7.1
// Dijkstra's predecessor chains), and for every center c sitting on
// such a path record the length of its c→r suffix. The table entry
// (c, r, e) → w later becomes the [c]→[r,e] arc of G_c: a concrete
// e-avoiding c→r walk, needed because small replacement paths have no
// long suffix for the landmark sampling to hit.
//
// The seed table is the paper's designated cuckoo-hash use: Θ(σn)
// paths may produce entries and lookups must stay O(1) worst case
// during the G_c construction (internal/cuckoo, Lemma 5). Each source
// fills a private shard presized by estimateSeedEntries; the solve's
// streaming merge (seedplan.go) folds the shards into the partitioned
// table. The path and edge expansions run through scratch buffers
// sized once per item, so the Θ(n) sweep performs no per-path
// allocation.
func buildSeedShard(ps *ssrp.PerSource, ctr *Centers, sc *engine.Scratch) *cuckoo.Table {
	table := cuckoo.New(estimateSeedEntries(ps, ctr))
	n := ps.Sh.G.NumVertices()
	edgeBuf := sc.Int32(n) // canonical tree paths have < n edges
	// Small replacement paths are walks — prefix plus near-hop tail can
	// exceed n vertices — so give the buffer slack; PathVerticesInto
	// falls back to allocating only beyond 2n, which no walk reaches at
	// small-path lengths (≤ |sr| + 2X < n each for prefix and tail).
	pathBuf := sc.Int32(2*n + 2)
	ts := ps.Ts
	for _, r := range ps.Sh.List {
		if r == ps.S || !ts.Reachable(r) {
			continue
		}
		l := ts.Dist[r]
		edges := ts.PathEdgesInto(edgeBuf, r)
		for i := ps.Small.NearStart(r); i < l; i++ {
			if ps.Small.Value(r, int(i)) >= rp.Inf {
				continue
			}
			path := ps.Small.PathVerticesInto(pathBuf, r, int(i))
			if path == nil {
				continue
			}
			e := edges[i]
			last := len(path) - 1
			for pos, w := range path {
				if pos == last {
					break // suffix of length 0 (c = r) is trivial
				}
				if !ctr.IsCenter(w) {
					continue
				}
				table.MinPut(packCRE(w, r, e), int32(last-pos))
			}
		}
	}
	return table
}

// estimateSeedEntries predicts one source's seed-table contribution so
// the shard can be presized (no growth-rehash cascade mid-build). Each
// landmark r offers min(nearEdgeCap, |sr|) small paths of length at
// most |sr| + 2X, and a vertex on such a path is a center with
// frequency ≈ |C|/n, so the expected entries per path are its length
// times that density. Overestimating only costs slack memory; the
// estimate is deliberately generous.
func estimateSeedEntries(ps *ssrp.PerSource, ctr *Centers) int {
	n := ps.Sh.G.NumVertices()
	density := float64(len(ctr.List)) / float64(n)
	est := 0.0
	for _, r := range ps.Sh.List {
		if r == ps.S || !ps.Ts.Reachable(r) {
			continue
		}
		l := float64(ps.Ts.Dist[r])
		paths := l - float64(ps.Small.NearStart(r))
		est += paths * (1 + density*(l+2*ps.Sh.X))
	}
	return int(est)
}

// centerLandmark holds the §8.2.2 output: d(c, r, e) for every center
// c, landmark r, and edge e among the first Budget(priority(c)) edges
// of the canonical (T_c) c→r path.
//
// Storage is dense: rows are indexed by center position (Centers.Index)
// and landmark position (Shared.Pos). dCR sits on the assembly's
// innermost candidate loop, where map lookups per call were measurable
// overhead, and dense slots are also what lets the streaming schedule
// write each center's output from whichever worker popped it,
// race-free.
type centerLandmark struct {
	ctr *Centers

	// rows[ci][li][j] = d(c, r, e_j) for c = ctr.List[ci], r =
	// sh.List[li], and e_j the j-th edge of the T_c path from c toward
	// r, j < min(budget, |cr|). nil rows mean r == c or unreachable.
	rows [][][]int32

	// prov[ci] retains G_c's parent chains and node decode tables under
	// Params.TrackPaths (the provenance plane's §8.2.2 layer); nil
	// otherwise.
	prov []*auxProv

	// Aggregate aux-graph size counters (all G_c combined, E9) and the
	// per-item wall time sum — atomics because the streaming schedule
	// retires centers from many workers at once.
	nodes      atomic.Int64
	arcs       atomic.Int64
	buildNanos atomic.Int64
}

// newCenterLandmark allocates the dense §8.2.2 output store; solveOne
// fills one center's slot at a time.
func newCenterLandmark(ctr *Centers) *centerLandmark {
	return &centerLandmark{
		ctr:  ctr,
		rows: make([][][]int32, len(ctr.List)),
		prov: make([]*auxProv, len(ctr.List)),
	}
}

// NumNodes and NumArcs expose the aggregate G_c sizes after the builds
// have completed.
func (cl *centerLandmark) NumNodes() int64 { return cl.nodes.Load() }
func (cl *centerLandmark) NumArcs() int64  { return cl.arcs.Load() }

// BuildTime returns the per-center build wall time summed over items —
// the StageCenterLandmark measure, unaffected by how the items
// interleave with other stages.
func (cl *centerLandmark) BuildTime() time.Duration {
	return time.Duration(cl.buildNanos.Load())
}

// solveOne solves the auxiliary graph G_c (§8.2.2) of center index ci,
// filling the center's dense slot. All written state is owned by ci,
// so solveOne is safe from any worker; the solve feeds it from the
// engine's ready queue once the center's seed partition is frozen.
//
// Node space of G_c: [c] (node 0), [r] per landmark, [r,e] per covered
// (landmark, prefix-edge) pair. Arcs (Lemma 21/22 case analysis):
//
//	[c]  → [r]      weight |cr|
//	[c]  → [r,e]    weight seed(c,r,e)   (§8.2.1 small path through c)
//	[r'] → [r,e]    weight |r'r|         if e ∉ cr' and e ∉ r'r
//	[r',e] → [r,e]  weight |r'r|         if [r',e] exists and e ∉ r'r
//
// All positions are measured in T_c, where the shared-prefix identity
// again makes an edge's index the same on every path through it.
func (cl *centerLandmark) solveOne(sh *ssrp.Shared, ci int, seed *cuckoo.Partitioned, sc *engine.Scratch) {
	start := time.Now()
	gc := cl.solveGc(sh, cl.ctr.List[ci], seed, sc)
	cl.rows[ci] = gc.rows(len(sh.List))
	if sh.Params.TrackPaths {
		cl.prov[ci] = gc.prov()
	}
	cl.nodes.Add(int64(gc.total))
	cl.arcs.Add(gc.arcs)
	cl.buildNanos.Add(time.Since(start).Nanoseconds())
}

// gcLandmark is landmark r's [r] node and its block of [r,e_j] nodes
// base..base+count-1 in G_c.
type gcLandmark struct {
	r, li       int32 // r and its position in sh.List
	dist        int32 // |cr|
	node        int32
	base, count int32
	// spanC is r's DFS interval in T_c: "e ∈ cr" is "e's T_c child
	// endpoint is an ancestor of r", an interval test.
	spanC lca.Span
}

// gcGraph is one center's G_c, never materialised: its node tables
// plus the Dijkstra state over them. Out-arcs are generated when a
// node is settled, in the order the explicit arc list would have held
// them (all [c] arcs, then per target [r,e_j] in landmark-major,
// edge-minor order), so the heap sees the push sequence of a CSR
// Dijkstra over the same graph and Dist/Parent come out identical,
// ties included. The int32/int64 arrays are carved from the worker's
// scratch.
type gcGraph struct {
	c     int32
	seed  *cuckoo.Partitioned
	views []lca.View // the landmarks' trees, by position in sh.List
	lms   []gcLandmark
	total int32 // node count
	first int32 // id of the first [r,e] node; covered index k = node − first

	cov        []gcCovered // by covered index
	byChild    []int32     // covered indices grouped by child, each group in k order
	byChildOff []int32     // byChild[byChildOff[x]:byChildOff[x+1]] shares child x
	dist       []int64
	parent     []int32
	heap       pqueue.Heap
	arcs       int64 // out-arcs of every node, settled or not
}

// gcCovered is one [r,e_j] node as the arc tests read it: the edge e_j
// with its endpoints, its T_c child endpoint and that child's T_c DFS
// interval, and the owning landmark's index in lms. One struct per node
// keeps a test's reads on one cache line.
type gcCovered struct {
	e     lca.Edge
	child int32
	span  lca.Span
	owner int32
}

// solveGc lays out center c's G_c and runs Dijkstra from [c] over its
// implicit arcs. It must not write shared state outside c's own slots:
// the solve runs it concurrently across centers. The result is
// valid until sc's next Reset.
func (cl *centerLandmark) solveGc(sh *ssrp.Shared, c int32, seed *cuckoo.Partitioned, sc *engine.Scratch) *gcGraph {
	ctr := cl.ctr
	tc := ctr.Tree[c]
	vc := &ctr.views[ctr.Index(c)]
	budget := ctr.Budget(ctr.Priority(c))

	gc := &gcGraph{c: c, seed: seed, views: sh.Views, lms: make([]gcLandmark, 0, len(sh.List))}
	next := int32(1)
	for li, r := range sh.List {
		if r == c || !tc.Reachable(r) {
			continue
		}
		gc.lms = append(gc.lms, gcLandmark{r: r, li: int32(li), dist: tc.Dist[r], node: next, spanC: vc.Span(r)})
		next++
	}
	gc.first = next
	for i := range gc.lms {
		lm := &gc.lms[i]
		lm.count = min(budget, lm.dist)
		lm.base = next
		next += lm.count
	}
	gc.total = next
	covered := int(gc.total - gc.first)
	gc.cov = make([]gcCovered, covered)
	g := sh.G
	for i := range gc.lms {
		lm := &gc.lms[i]
		// The covered edges are the T_c path *prefix*: walk up from r
		// and keep the first `count` edges (positions 0..count-1 from
		// the c side).
		x := lm.r
		for j := lm.dist - 1; j >= 0; j-- {
			if j < lm.count {
				gc.cov[lm.base-gc.first+j] = gcCovered{e: lca.EdgeOf(g, tc.ParentEdge[x]), child: x, span: vc.Span(x), owner: int32(i)}
			}
			x = tc.Parent[x]
		}
	}
	// Counting sort of the covered nodes by T_c child: the [r',e_j]
	// out-arcs go exactly to the other nodes sharing e_j.
	n := g.NumVertices()
	gc.byChildOff = sc.Int32(n + 1)
	clear(gc.byChildOff)
	for k := range gc.cov {
		gc.byChildOff[gc.cov[k].child+1]++
	}
	for x := 0; x < n; x++ {
		gc.byChildOff[x+1] += gc.byChildOff[x]
	}
	cursor := sc.Int32(n)
	copy(cursor, gc.byChildOff[:n])
	gc.byChild = sc.Int32(covered)
	for k := range gc.cov {
		x := gc.cov[k].child
		gc.byChild[cursor[x]] = int32(k)
		cursor[x]++
	}

	gc.dist, gc.parent = sc.Int64(int(gc.total)), sc.Int32(int(gc.total))
	for v := range gc.dist {
		gc.dist[v] = dijkstra.Inf
		gc.parent[v] = -1
	}
	gc.run()
	return gc
}

// run is Dijkstra from [c] with lazy deletion, generating each settled
// node's out-arcs on the fly; it then counts the out-arcs of the nodes
// left unsettled so arcs covers all of G_c. Every [r] hangs off [c]
// directly, so only [r,e] nodes can be left unsettled.
func (gc *gcGraph) run() {
	h := &gc.heap
	h.Grow(int(gc.total) / 4)
	gc.dist[0] = 0
	h.Push(0, 0)
	for h.Len() > 0 {
		it := h.Pop()
		v := it.Value
		if it.Key != gc.dist[v] {
			continue // stale entry
		}
		switch {
		case v == 0:
			gc.arcs += gc.scanCenter()
		case v < gc.first:
			gc.arcs += gc.scanLandmark(v-1, it.Key)
		default:
			gc.arcs += gc.scanCovered(v-gc.first, it.Key, true)
		}
	}
	for v := gc.first; v < gc.total; v++ {
		if gc.dist[v] == dijkstra.Inf {
			gc.arcs += gc.scanCovered(v-gc.first, 0, false)
		}
	}
}

func (gc *gcGraph) relax(from, to int32, d int64) {
	if d < gc.dist[to] {
		gc.dist[to] = d
		gc.parent[to] = from
		gc.heap.Push(d, to)
	}
}

// scanCenter relaxes [c]'s out-arcs: [c]→[r] for every landmark, then
// the §8.2.1 seed arcs [c]→[r,e_j]. [c] is the source, at distance 0.
func (gc *gcGraph) scanCenter() int64 {
	var arcs int64
	for i := range gc.lms {
		lm := &gc.lms[i]
		gc.relax(0, lm.node, int64(lm.dist))
		arcs++
	}
	for k := range gc.cov {
		cv := &gc.cov[k]
		if w, ok := gc.seed.Get(packCRE(gc.c, gc.lms[cv.owner].r, cv.e.ID)); ok {
			gc.relax(0, gc.first+int32(k), int64(w))
			arcs++
		}
	}
	return arcs
}

// scanLandmark relaxes [r']'s out-arcs from distance d, for r' =
// lms[i]: [r,e_j] for every other landmark r with e_j ∉ cr' and e_j ∉
// r'r, weight |r'r|. It returns how many there are.
func (gc *gcGraph) scanLandmark(i int32, d int64) int64 {
	src := &gc.lms[i]
	view := &gc.views[src.li]
	var arcs int64
	for i2 := range gc.lms {
		dst := &gc.lms[i2]
		if int32(i2) == i {
			continue
		}
		dRR := view.Dist[dst.r]
		if dRR < 0 {
			continue
		}
		rs := view.Span(dst.r)
		lo := dst.base - gc.first
		block := gc.cov[lo : lo+dst.count]
		// The edges of the c→r prefix that also lie on cr' are exactly
		// a prefix of the block (those above the T_c LCA of r and r').
		j := 0
		for j < len(block) && block[j].span.Contains(src.spanC) {
			j++
		}
		for ; j < len(block); j++ {
			if view.OnPath(block[j].e, rs) {
				continue
			}
			arcs++
			gc.relax(src.node, gc.first+lo+int32(j), d+int64(dRR))
		}
	}
	return arcs
}

// scanCovered generates [r',e_j]'s out-arcs for covered node k: [r,e_j]
// for every other landmark r whose covered prefix shares e_j (then e_j
// ∈ cr' by construction) with e_j ∉ r'r, weight |r'r|. It relaxes them
// from distance d when relax is set, and returns how many there are
// either way.
func (gc *gcGraph) scanCovered(k int32, d int64, relax bool) int64 {
	i := gc.cov[k].owner
	src := &gc.lms[i]
	view := &gc.views[src.li]
	x := gc.cov[k].child
	var arcs int64
	for _, k2 := range gc.byChild[gc.byChildOff[x]:gc.byChildOff[x+1]] {
		dst := &gc.cov[k2]
		if dst.owner == i {
			continue
		}
		r := gc.lms[dst.owner].r
		dRR := view.Dist[r]
		if dRR < 0 {
			continue
		}
		if view.OnPath(dst.e, view.Span(r)) {
			continue
		}
		arcs++
		if relax {
			gc.relax(gc.first+k, gc.first+k2, d+int64(dRR))
		}
	}
	return arcs
}

// rows extracts the d(c,r,·) rows, indexed by landmark position in
// sh.List (nil for r == c and unreachable landmarks).
func (gc *gcGraph) rows(numLandmarks int) [][]int32 {
	rows := make([][]int32, numLandmarks)
	for i := range gc.lms {
		lm := &gc.lms[i]
		row := make([]int32, lm.count)
		for j := range row {
			if d := gc.dist[lm.base+int32(j)]; d >= int64(rp.Inf) {
				row[j] = rp.Inf
			} else {
				row[j] = int32(d)
			}
		}
		rows[lm.li] = row
	}
	return rows
}

// prov copies G_c's parent chains and node decode tables out of the
// scratch for the provenance plane.
func (gc *gcGraph) prov() *auxProv {
	ap := &auxProv{
		parent:  append([]int32(nil), gc.parent...),
		nodeOwn: make([]int32, gc.total),
		nodeIdx: make([]int32, gc.total),
		base:    make(map[int32]int32, len(gc.lms)),
		start:   make(map[int32]int32, len(gc.lms)),
	}
	ap.nodeOwn[0], ap.nodeIdx[0] = -1, -1
	for i := range gc.lms {
		lm := &gc.lms[i]
		ap.nodeOwn[lm.node], ap.nodeIdx[lm.node] = lm.r, -1
		ap.base[lm.r], ap.start[lm.r] = lm.base, 0 // G_c covers the prefix
		for j := int32(0); j < lm.count; j++ {
			ap.nodeOwn[lm.base+j] = lm.r
			ap.nodeIdx[lm.base+j] = j
		}
	}
	return ap
}

// dCR returns d(c, r, e) for center c and graph edge e: |cr| when e is
// off the canonical (T_c) c→r path, the §8.2.2 value when covered by
// c's budget, rp.Inf otherwise.
func (cl *centerLandmark) dCR(sh *ssrp.Shared, c, r int32, e lca.Edge) int32 {
	if c == r {
		return 0
	}
	ci := cl.ctr.Index(c)
	if ci < 0 {
		return rp.Inf
	}
	w := &cl.ctr.views[ci]
	dr := w.Dist[r]
	if dr < 0 {
		return rp.Inf
	}
	child := w.Child(e)
	if child < 0 || !w.Span(child).Contains(w.Span(r)) {
		return dr
	}
	li := sh.Pos(r)
	if li < 0 {
		return rp.Inf
	}
	// e's index on the T_c path toward r is depth(child)−1 in T_c.
	j := w.Dist[child] - 1
	row := cl.rows[ci][li]
	if j < 0 || j >= int32(len(row)) {
		return rp.Inf
	}
	return row[j]
}

// provAt returns center c's retained §8.2.2 provenance, or nil.
func (cl *centerLandmark) provAt(c int32) *auxProv {
	ci := cl.ctr.Index(c)
	if ci < 0 {
		return nil
	}
	return cl.prov[ci]
}
