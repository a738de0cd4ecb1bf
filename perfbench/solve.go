package main

import (
	"fmt"
	"runtime"
	"time"

	"msrp"
	msrpcore "msrp/internal/msrp"
	"msrp/internal/ssrp"
)

// solveInstances is how many instances a solve run cycles through.
const solveInstances = 8

// params mirrors the public Options as the internal solver
// parameters, the way msrp.MultiSource passes them down.
func params(o msrp.Options) ssrp.Params {
	p := ssrp.DefaultParams()
	p.Seed, p.SampleBoost, p.SuffixScale, p.Parallelism = o.Seed, o.SampleBoost, o.SuffixScale, o.Parallelism
	p.TrackPaths = o.TrackPaths
	return p
}

// runSolve cycles msrp.MultiSource over the run's instances for the
// run time, checking every answer table against the reference.
//
// On a shared host, neighbours slow CPU- and memory-bound work by up
// to 2x for seconds to minutes and never speed it up, so a solve time
// is the best of the instance's solves in the run: solve_s is the mean
// over instances of that best, and batch_p50_ms and batch_p90_ms are
// percentiles of the per-instance bests (a batch here is one
// full-table MultiSource call; with 8 instances the p90 is the
// slowest). Set-up, which for a solve is graph generation, is timed
// before every solve, so its median spans the run.
func runSolve(cfg config) (*report, error) {
	insts := newInstances(cfg.seed, solveInstances)
	rep := newReport()
	if cfg.trace {
		return rep, traceSolve(cfg, insts[0], rep)
	}
	// One untimed solve first, so the heap has grown to its working
	// size before timing starts.
	res, err := msrp.MultiSource(insts[0].g, insts[0].sources, insts[0].options(cfg.procs))
	if err != nil {
		return nil, err
	}
	rep.tally.add(checkResults(insts[0], res))
	best := make([]time.Duration, len(insts))
	var setups, all samples
	deadline := time.Now().Add(cfg.seconds)
	for i := 0; i < len(insts) || time.Now().Before(deadline); i++ {
		k := i % len(insts)
		inst := insts[k]
		start := time.Now()
		g := genGraph(inst.seed)
		_ = evenSources(g.NumVertices(), instSigma)
		setups = append(setups, time.Since(start))

		start = time.Now()
		res, err = msrp.MultiSource(inst.g, inst.sources, inst.options(cfg.procs))
		d := time.Since(start)
		if err != nil {
			return nil, err
		}
		if best[k] == 0 || d < best[k] {
			best[k] = d
		}
		all = append(all, d)
		rep.tally.add(checkResults(inst, res))
	}
	rep.set("setup_s", setups.median().Seconds())
	rep.set("solve_s", samples(best).mean().Seconds())
	rep.set("batch_p50_ms", ms(samples(best).median()))
	rep.extra("batch_p90_ms", ms(samples(best).quantile(0.9)), "ms")
	rep.set("heap_live_mb", heapLiveMB())
	runtime.KeepAlive(res)
	rep.extra("solves", float64(len(all)), "count")
	rep.record["solveSeconds"] = secondsOf(all)
	rep.record["bestSeconds"] = secondsOf(best)
	return rep, nil
}

// traceSolve alternates untraced MultiSource calls with traced solves
// that call the shared preprocessing and the §8 solve separately, each
// in a span; then it times one sequential solve for the record.
func traceSolve(cfg config, inst *instance, rep *report) error {
	opts := inst.options(cfg.procs)
	tr := newTracer()
	var plain, traced, shared, solved, gaps samples
	var last struct {
		sh    *ssrp.Shared
		stats *msrpcore.Stats
	}
	deadline := time.Now().Add(cfg.seconds)
	for len(traced) == 0 || time.Now().Before(deadline) {
		start := time.Now()
		res, err := msrp.MultiSource(inst.g, inst.sources, opts)
		plain = append(plain, time.Since(start))
		if err != nil {
			return err
		}
		rep.tally.add(checkResults(inst, res))

		var sh *ssrp.Shared
		var sol *msrpcore.Solution
		var sp, ss span
		root := tr.timed("solve", 0, func(id int64) {
			sp = tr.timed("shared", id, func(int64) { sh, err = ssrp.NewShared(inst.g.Internal(), inst.sources32(), params(opts)) })
			if err != nil {
				return
			}
			ss = tr.timed("solve_shared", id, func(int64) { sol, err = msrpcore.SolveShared(sh) })
		})
		if err != nil {
			return fmt.Errorf("traced solve: %w", err)
		}
		rep.tally.add(checkSolution(inst, sol))
		traced = append(traced, root.dur())
		shared = append(shared, sp.dur())
		solved = append(solved, ss.dur())
		gaps = append(gaps, root.dur()-sp.dur()-ss.dur())
		last.sh, last.stats = sh, sol.Stats
	}
	start := time.Now()
	seq := opts
	seq.Parallelism = 1
	if _, err := msrp.MultiSource(inst.g, inst.sources, seq); err != nil {
		return err
	}
	rep.set("msrp.solve_ms_p1", ms(time.Since(start)))

	spans := tr.recorded()
	tree := buildTree(spans)
	if bad := tree.validate(); len(bad) > 0 {
		return fmt.Errorf("span nesting: %d violations, first: %s", len(bad), bad[0])
	}
	rep.set("trace.overhead_ms", ms(traced.median())-ms(plain.median()))
	rep.set("msrp.span_gap_ms", ms(gaps.median()))
	rep.set("ssrp.shared_ms", ms(shared.median()))
	setSolveMetrics(rep, last.sh, last.stats, solved.median())
	// No tracking on this workload: nothing to compact.
	rep.set("msrp.compact_ms", 0)
	rep.set("msrp.prov_raw_bytes", 0)
	rep.set("msrp.prov_compact_bytes", 0)
	// Builds inside the §8 solve: one per source, timed by the
	// per-source build stage.
	rep.set("ssrp.builds", float64(len(inst.sources)))
	rep.set("ssrp.build_ms_mean", ms(last.stats.StagePerSourceBuild)/float64(len(inst.sources)))
	return writeSpans(cfg.spanPath(), spans)
}

// setSolveMetrics records the msrp and engine layer metrics of one §8
// solve: its wall time, its stage times summed over items (CPU time,
// not the critical path), its sizes, and the engine counters of the
// pool it ran on.
func setSolveMetrics(rep *report, sh *ssrp.Shared, st *msrpcore.Stats, solve time.Duration) {
	rep.set("ssrp.landmarks", float64(len(sh.List)))
	rep.set("msrp.solve_ms", ms(solve))
	rep.set("msrp.build_cpu_ms", ms(st.StagePerSourceBuild))
	rep.set("msrp.enumerate_cpu_ms", ms(st.StageSeedEnumerate))
	rep.set("msrp.merge_cpu_ms", ms(st.StageSeedMerge))
	rep.set("msrp.center_landmark_cpu_ms", ms(st.StageCenterLandmark))
	rep.set("msrp.assembly_cpu_ms", ms(st.StageAssembly))
	rep.set("msrp.cl_arcs", float64(st.CLArcs))
	rep.set("msrp.cl_nodes", float64(st.CLNodes))
	rep.set("msrp.seed_count", float64(st.SeedCount))
	rep.set("msrp.centers", float64(st.CenterCount))
	rep.set("msrp.sweeps", float64(st.Sweeps))
	rep.set("msrp.sweep_improved", float64(st.SweepImproved))
	rep.set("msrp.peak_seed_path_bytes", float64(st.PeakSeedPathBytes))
	rep.set("engine.steals", float64(sh.Pool.Steals()))
	rep.set("engine.scratch_allocs", float64(sh.Pool.ScratchAllocs()))
	rep.set("engine.scratch_bytes", float64(sh.Pool.ScratchBytes()))
	rep.set("engine.centers_ready", float64(st.CentersReady))
	rep.set("engine.centers_overlapped", float64(st.CentersOverlapped))
	rep.record["msrpStats"] = st
}

// checkSolution checks a solution from the internal solver.
func checkSolution(inst *instance, sol *msrpcore.Solution) tally {
	return checkTables(inst, len(sol.Results), func(i, v int) []int32 { return sol.Results[i].Len[v] })
}
