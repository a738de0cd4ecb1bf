package msrp

import (
	"fmt"
	"math/bits"
	"sort"
	"sync/atomic"
	"time"

	"msrp/internal/cuckoo"
	"msrp/internal/engine"
	"msrp/internal/ssrp"
)

// The streaming seed merge and its readiness analysis.
//
// Each source's §8.2.1 seed shard is enumerated right after its own
// §7.1/§8.1 build. A single merge of all shards would make every
// §8.2.2 per-center Dijkstra wait for the slowest source; the merge
// here streams instead:
//
//   - The merge target is a cuckoo.Partitioned keyed by center id
//     (packCRE leads with the center's bits, so routing on high key
//     bits partitions the table *by center* — every key of one center
//     lands in exactly one partition).
//
//   - A conservative source→center contribution map, computed from the
//     prebuilt landmark trees alone, tells which sources can ever
//     write a given center's keys. When the last registered source of
//     a partition retires, the partition is frozen — its staged
//     entries are folded in, and it will never be written again — and
//     its centers are published to the engine's ReadyQueue, while
//     other sources are still building, enumerating, or folding other
//     partitions. §8.2.2 work starts the moment its inputs exist, not
//     when the slowest source finishes.
//
// Soundness of the contribution map: a §8.2.1 entry for center c from
// source s exists only if c lies (strictly before the end) on a small
// replacement path of s. Such a walk is a canonical prefix s⇝v plus a
// chain of near-edge detour hops, all at one shared path-edge index
// i ≤ max_r |sr| − 1: each chain vertex t' has e near on its canonical
// path, so |st'| ≤ i + nearEdgeCap, and the prefix endpoint v is
// adjacent to the first chain vertex, so |sv| ≤ i + nearEdgeCap + 1.
// Every walk vertex therefore satisfies
//
//	dist_s(w) ≤ max_{r ∈ landmarks} dist_s(r) + nearEdgeCap + 1 =: B(s)
//
// and contributors(c) ⊇ {s : 0 ≤ dist_s(c) ≤ B(s)} is a sound
// over-approximation: readiness can only fire late, never early. Two
// guards turn "never early" from an argument into an invariant: the
// scatter panics if a source emits an entry for a partition it did not
// register for, and the freeze panics if a member center still has
// registered contributors outstanding.
//
// Determinism: each retiring source appends its entries (in its
// shard's deterministic layout order) to per-(partition, source)
// staging buckets; a freeze folds the buckets in source order into a
// presized partition table. The fold sequence of every partition is
// therefore a pure function of the instance — independent of worker
// count and retire interleaving — so the Partitioned's contents AND
// layout (Fingerprint) are bit-identical at every worker count.
type seedPlan struct {
	sh  *ssrp.Shared
	ctr *Centers

	parts *cuckoo.Partitioned
	// ctrShift is the partition routing shift expressed on center ids:
	// part(c) = c >> ctrShift (clamped), matching parts.Part(packCRE(c,·,·)).
	ctrShift uint

	// srcCenters[i] / srcParts[i]: the center indices (positions in
	// ctr.List) and partition ids source i registered for, sorted.
	srcCenters [][]int32
	srcParts   [][]int32

	// partCenters[p]: center indices whose keys route to partition p.
	partCenters [][]int32

	// buckets[p][i] stages source i's entries for partition p between
	// the source's retirement and the partition's freeze. Written only
	// by source i's worker; read only by the freezing worker, which the
	// partRemaining counter hand-off orders after every write.
	buckets [][][]cuckoo.Entry

	// Remaining-contributor counters: partRemaining[p] gates partition
	// p's freeze, centerRemaining[ci] is the per-center view kept for
	// the freeze invariant check and the readiness stats.
	partRemaining   []atomic.Int32
	centerRemaining []atomic.Int32

	// srcRemaining counts sources that have not yet retired; abDone
	// counts sources whose full stage-B (enumerate + retire) returned.
	// The pair feeds the two observability counters: centersReady
	// (readiness fired while other sources were still in flight) and
	// centersOverlapped (§8.2.2 builds started while per-source work
	// was still running).
	srcRemaining atomic.Int32
	abDone       atomic.Int32

	rq *engine.ReadyQueue

	centersReady      atomic.Int64
	centersOverlapped atomic.Int64
	shardRehashes     atomic.Int64
	mergeNanos        atomic.Int64
}

// seedPartsTarget bounds the partition count: enough partitions that
// freezes release center batches incrementally, few enough that the
// per-table overhead stays trivial.
const seedPartsTarget = 64

// newSeedPlan runs the readiness analysis on the prebuilt landmark
// trees and returns the streaming-merge plan: partition routing,
// per-source registration sets, remaining-contributor counters, and
// the ready queue (with zero-contributor partitions already frozen and
// their centers marked — an unreachable or never-touched center's
// §8.2.2 build is runnable at t=0).
func newSeedPlan(sh *ssrp.Shared, ctr *Centers) *seedPlan {
	n := sh.G.NumVertices()
	// Shift so that ~seedPartsTarget partitions cover the live center-id
	// range: keys are c<<(vertexBits+edgeBits)|…, so shifting by
	// (vertexBits+edgeBits)+k routes on c>>k.
	extra := 0
	if b := bits.Len(uint(n - 1)); b > 6 { // 2^6 = seedPartsTarget
		extra = b - 6
	}
	ctrShift := uint(extra)
	nParts := ((n - 1) >> ctrShift) + 1
	pl := &seedPlan{
		sh:          sh,
		ctr:         ctr,
		parts:       cuckoo.NewPartitioned(nParts, uint(vertexBits+edgeBits)+ctrShift),
		ctrShift:    ctrShift,
		srcCenters:  make([][]int32, sh.Sigma()),
		srcParts:    make([][]int32, sh.Sigma()),
		partCenters: make([][]int32, nParts),
		buckets:     make([][][]cuckoo.Entry, nParts),
	}
	for p := range pl.buckets {
		pl.buckets[p] = make([][]cuckoo.Entry, sh.Sigma())
	}
	pl.partRemaining = make([]atomic.Int32, nParts)
	pl.centerRemaining = make([]atomic.Int32, len(ctr.List))
	for ci, c := range ctr.List {
		p := pl.partOf(c)
		pl.partCenters[p] = append(pl.partCenters[p], int32(ci))
	}

	// Contribution map: per source, the centers within B(s) of s in s's
	// prebuilt landmark tree (sources are forced landmarks, so the tree
	// exists before any per-source build runs). Sources are independent;
	// fan out over the pool.
	sh.Pool.Run(sh.Sigma(), func(i int) {
		ts := sh.Tree[sh.Sources[i]]
		maxLm := int32(-1)
		for _, r := range sh.List {
			if d := ts.Dist[r]; d > maxLm {
				maxLm = d
			}
		}
		if maxLm < 0 {
			return // isolated source: no landmark reachable, no entries
		}
		bound := int64(maxLm) + int64(sh.NearEdgeCap()) + 1
		centers := make([]int32, 0, len(ctr.List))
		var partsSet []int32
		for ci, c := range ctr.List {
			d := ts.Dist[c]
			if d < 0 || int64(d) > bound {
				continue
			}
			centers = append(centers, int32(ci))
			p := int32(pl.partOf(c))
			if len(partsSet) == 0 || partsSet[len(partsSet)-1] != p {
				partsSet = append(partsSet, p) // ctr.List ascending ⇒ parts ascending
			}
		}
		pl.srcCenters[i] = centers
		pl.srcParts[i] = partsSet
	})

	for i := range pl.srcCenters {
		for _, ci := range pl.srcCenters[i] {
			pl.centerRemaining[ci].Add(1)
		}
		for _, p := range pl.srcParts[i] {
			pl.partRemaining[p].Add(1)
		}
	}
	pl.srcRemaining.Store(int32(sh.Sigma()))
	pl.rq = engine.NewReadyQueue(len(ctr.List))
	// Partitions no source registered for are frozen (empty) up front;
	// their centers' §8.2.2 builds have no seed inputs to wait for.
	for p := range pl.partRemaining {
		if pl.partRemaining[p].Load() == 0 {
			pl.freeze(p)
		}
	}
	return pl
}

// partOf returns the partition id of center c's keys.
func (pl *seedPlan) partOf(c int32) int {
	p := int(uint32(c) >> pl.ctrShift)
	if p >= pl.parts.Parts() {
		p = pl.parts.Parts() - 1
	}
	return p
}

// retire publishes source src's finished seed shard and retires the
// source: entries scatter into the per-partition staging buckets, the
// remaining-contributor counters drop, and every partition this source
// completed is frozen (folded and its centers marked runnable). Called
// from the source's stage B; safe concurrently across sources.
func (pl *seedPlan) retire(src int, shard *cuckoo.Table) {
	start := time.Now()
	pl.shardRehashes.Add(int64(shard.Rehashes()))
	myParts := pl.srcParts[src]
	shard.Range(func(key uint64, val int32) bool {
		p := pl.parts.Part(key)
		at := sort.Search(len(myParts), func(k int) bool { return myParts[k] >= int32(p) })
		if at >= len(myParts) || myParts[at] != int32(p) {
			// An entry outside the registered set means the readiness
			// bound was unsound: the partition may already be frozen and
			// the entry silently lost. Fail loudly instead.
			panic(fmt.Sprintf("msrp: source %d emitted seed entry %x into unregistered partition %d (readiness bound unsound)", src, key, p))
		}
		pl.buckets[p][src] = append(pl.buckets[p][src], cuckoo.Entry{Key: key, Val: val})
		return true
	})
	// Retire order matters: srcRemaining first, so readiness fired by
	// this source's own freezes counts as "while sources in flight"
	// only when *other* sources genuinely remain; center counters
	// before partition counters, so a freeze observes every member
	// center already at zero.
	pl.srcRemaining.Add(-1)
	for _, ci := range pl.srcCenters[src] {
		if pl.centerRemaining[ci].Add(-1) < 0 {
			panic(fmt.Sprintf("msrp: center %d retired below zero contributors", ci))
		}
	}
	for _, p := range myParts {
		if pl.partRemaining[p].Add(-1) == 0 {
			pl.freeze(int(p))
		}
	}
	pl.mergeNanos.Add(time.Since(start).Nanoseconds())
}

// freeze folds partition p's staged buckets into its presized table —
// in source order, so the fold sequence (hence the table layout) is
// schedule-independent — and marks the partition's centers runnable.
// Runs on the worker whose retire completed the partition (or inline
// from newSeedPlan for zero-contributor partitions); the partRemaining
// hand-off makes every contributor's bucket writes visible here.
func (pl *seedPlan) freeze(p int) {
	total := 0
	for _, b := range pl.buckets[p] {
		total += len(b)
	}
	t := pl.parts.Table(p)
	t.Reserve(total)
	for src := range pl.buckets[p] {
		for _, e := range pl.buckets[p][src] {
			t.MinPut(e.Key, e.Val)
		}
		pl.buckets[p][src] = nil
	}
	// Freeze implies every member center's contributors have retired
	// (contributors(partition) ⊇ contributors(center)); a nonzero
	// counter here means the partition-level accounting diverged from
	// the per-center one.
	for _, ci := range pl.partCenters[p] {
		if pl.centerRemaining[ci].Load() != 0 {
			panic(fmt.Sprintf("msrp: partition %d froze with center %d still holding contributors", p, ci))
		}
	}
	inFlight := pl.srcRemaining.Load() > 0
	for _, ci := range pl.partCenters[p] {
		pl.rq.Mark(int(ci))
		if inFlight {
			pl.centersReady.Add(1)
		}
	}
}

// noteCenterStart records a §8.2.2 per-center build starting; builds
// that begin while any source's stage B is still running are the
// overlap the streaming schedule exists to create.
func (pl *seedPlan) noteCenterStart() {
	if pl.abDone.Load() < int32(pl.sh.Sigma()) {
		pl.centersOverlapped.Add(1)
	}
}

// noteSourceDone records a source's stage B fully returning (retire
// included).
func (pl *seedPlan) noteSourceDone() { pl.abDone.Add(1) }

// rehashes returns the total cuckoo rebuild count across shards and
// partition folds (Stats.SeedRehashes).
func (pl *seedPlan) rehashes() int {
	return int(pl.shardRehashes.Load()) + pl.parts.Rehashes()
}
