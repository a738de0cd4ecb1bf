package main

import (
	"math"
	"time"

	"msrp"
	"msrp/internal/naive"
	"msrp/internal/rp"
	"msrp/internal/server"
	"msrp/internal/xrand"
)

// Every workload runs on instances of one shape: a random connected
// graph with n vertices and m = 4n edges, and σ evenly spread sources,
// solved at the paper's constants.
const (
	instN     = 200
	instM     = 4 * instN
	instSigma = 16
)

// instance is one generated input and its reference answers. The
// reference is the brute-force naive.MSRP table, built outside every
// timed region.
type instance struct {
	seed    uint64
	g       *msrp.Graph
	sources []int
	ref     []*rp.Result // in source order
	refOf   map[int]*rp.Result
}

// graphSeed and solverSeed derive an instance's two input seeds from
// its seed, itself derived from the workload seed, so the program
// receives only generated inputs.
func graphSeed(seed uint64) uint64  { return xrand.Mix(seed ^ 0x6a09e667f3bcc908) }
func solverSeed(seed uint64) uint64 { return xrand.Mix(seed ^ 0xbb67ae8584caa73b) }

// genGraph builds the seed's graph. It is the first step of every
// timed set-up.
func genGraph(seed uint64) *msrp.Graph {
	return msrp.GenerateRandomConnected(graphSeed(seed), instN, instM)
}

// evenSources picks σ evenly spread sources, as msrp-serve's
// -auto-sources does.
func evenSources(n, sigma int) []int {
	srcs := make([]int, sigma)
	for i := range srcs {
		srcs[i] = i * n / sigma
	}
	return srcs
}

// newInstances derives k instances from the workload seed. A run
// measures all of them, so one run's figures average over k graphs
// rather than hinge on one.
func newInstances(seed uint64, k int) []*instance {
	out := make([]*instance, k)
	for i := range out {
		out[i] = newInstance(xrand.Mix(seed ^ xrand.Mix(uint64(i)+1)))
	}
	return out
}

func newInstance(seed uint64) *instance {
	g := genGraph(seed)
	inst := &instance{seed: seed, g: g, sources: evenSources(g.NumVertices(), instSigma), refOf: map[int]*rp.Result{}}
	inst.ref = naive.MSRP(g.Internal(), inst.sources32())
	for i, s := range inst.sources {
		inst.refOf[s] = inst.ref[i]
	}
	return inst
}

func (inst *instance) sources32() []int32 {
	out := make([]int32, len(inst.sources))
	for i, s := range inst.sources {
		out[i] = int32(s)
	}
	return out
}

// options returns the solver options every workload starts from.
func (inst *instance) options(parallelism int) msrp.Options {
	o := msrp.DefaultOptions()
	o.Seed = solverSeed(inst.seed)
	o.Parallelism = parallelism
	return o
}

// mixEntry is one kind of batch in a workload's traffic mix.
type mixEntry struct {
	size   int
	weight float64
	paths  bool
}

// queryGen draws valid queries: a source, a reachable target, and an
// edge of the canonical source→target path. The canonical path is the
// reference's BFS tree path, which is the tree the program answers
// against (both use the deterministic first-discoverer BFS).
type queryGen struct {
	inst *instance
	mix  []mixEntry
	rng  *xrand.RNG
}

func newQueryGen(inst *instance, mix []mixEntry, seed uint64) *queryGen {
	return &queryGen{inst: inst, mix: mix, rng: xrand.New(seed)}
}

func (qg *queryGen) batch() []server.QueryItem {
	var total float64
	for _, m := range qg.mix {
		total += m.weight
	}
	w := qg.rng.Float64() * total
	entry := qg.mix[len(qg.mix)-1]
	for _, m := range qg.mix {
		if w < m.weight {
			entry = m
			break
		}
		w -= m.weight
	}
	items := make([]server.QueryItem, entry.size)
	for i := range items {
		items[i] = qg.query(entry.paths)
	}
	return items
}

func (qg *queryGen) query(paths bool) server.QueryItem {
	inst := qg.inst
	si := qg.rng.Intn(len(inst.sources))
	tree := inst.ref[si].Tree
	var t int32
	for {
		t = int32(qg.rng.Intn(inst.g.NumVertices()))
		if tree.Dist[t] >= 1 {
			break
		}
	}
	child := t
	for k := qg.rng.Intn(int(tree.Dist[t])); k > 0; k-- {
		child = tree.Parent[child]
	}
	return server.QueryItem{Source: inst.sources[si], Target: int(t), U: int(tree.Parent[child]), V: int(child), Paths: paths}
}

// exp draws an exponential inter-arrival gap for the given rate.
func (qg *queryGen) exp(rate float64) time.Duration {
	u := qg.rng.Float64()
	for u == 0 {
		u = qg.rng.Float64()
	}
	return time.Duration(-math.Log(u) / rate * float64(time.Second))
}
