package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"msrp"
	msrpcore "msrp/internal/msrp"
	"msrp/internal/router"
	"msrp/internal/server"
	"msrp/internal/ssrp"
)

// serveSpec describes one serving workload.
type serveSpec struct {
	routed bool
	mix    []mixEntry
	// nominal is the rate whose latency is reported; ladder holds the
	// higher rates probed for max_rate_bps.
	nominal float64
	ladder  []float64
	// p99Limit is the latency limit a ladder step must meet.
	p99Limit time.Duration
	// instances is how many instances a run serves in turn, and
	// setupReps how many times it builds each instance's fleet (the
	// last build serves; on serve-paths the first build has no
	// provenance budget and measures the compacted total the budget is
	// derived from).
	instances, setupReps int
}

var (
	routedSpec = serveSpec{
		routed:    true,
		mix:       []mixEntry{{size: 1, weight: 3}, {size: 8, weight: 1}},
		nominal:   1000,
		ladder:    []float64{2000, 4000, 6000},
		p99Limit:  5 * time.Millisecond,
		instances: 5,
		setupReps: 4,
	}
	pathsSpec = serveSpec{
		mix:       []mixEntry{{size: 1, weight: 3}, {size: 8, weight: 1}, {size: 2, weight: 1, paths: true}},
		nominal:   500,
		ladder:    []float64{1000, 2000, 4000},
		p99Limit:  50 * time.Millisecond,
		instances: 5,
		setupReps: 2,
	}
)

// windowLen is the length of the nominal-rate windows whose p50 and
// p90 are summarised by their medians. At either nominal rate a window
// holds at least 500 batches, so its p90 has fifty beyond it.
const windowLen = time.Second

// window is one nominal-rate window: its latency percentiles and the
// share of the host's CPU time the hypervisor stole during it (-1 when
// the host does not report it).
type window struct {
	P50ms, P90ms float64
	Steal        float64
}

// quietHalf returns the half of the windows with the least stolen CPU
// time (all of them when the host reports none). Stolen time comes in
// bursts that stall every layer at once; leaving out the windows that
// suffered most keeps the percentiles about the system.
func quietHalf(ws []window) []window {
	for _, w := range ws {
		if w.Steal < 0 {
			return ws
		}
	}
	sorted := append([]window(nil), ws...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Steal < sorted[j].Steal })
	return sorted[:(len(sorted)+1)/2]
}

// provBudgetShare is the provenance budget of serve-paths as a share
// of the seed's compacted provenance total, so the byte budget strips
// and path queries rebuild.
const provBudgetShare = 0.86

// fleet is the serving system under test: one server (serve-paths) or
// a router over two replicas (serve-routed), all in this process on
// loopback listeners.
type fleet struct {
	oracles  []*msrp.Oracle
	replicas []*httptest.Server
	router   *router.Router
	front    *httptest.Server
	// transport is the router's replica transport.
	transport *http.Transport
	// warm is the time the fleet took to build its answer table.
	warm time.Duration
}

func (f *fleet) close() {
	if f.front != nil {
		f.front.Close()
	}
	if f.router != nil {
		f.router.Close()
	}
	for _, r := range f.replicas {
		r.Close()
	}
	if f.transport != nil {
		f.transport.CloseIdleConnections()
	}
}

// wrap puts a tracing handler around h when tracing.
func wrap(tr *tracer, name string, replica int, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return tr.handler(name, replica, h)
}

// setupRouted builds two replicas and a router, then warms the fleet
// through the router's /v1/warm, which builds each replica's hash
// slice lazily (per-source ssrp builds; §8 never runs).
func setupRouted(inst *instance, cfg config, tr *tracer) (*fleet, error) {
	f := &fleet{}
	g := genGraph(inst.seed)
	var urls []string
	for r := 0; r < 2; r++ {
		var o *msrp.Oracle
		var err error
		tr.timed("new_oracle", 0, func(int64) {
			o, err = msrp.NewOracle(g, evenSources(g.NumVertices(), instSigma), inst.options(cfg.procs))
		})
		if err != nil {
			f.close()
			return nil, fmt.Errorf("new oracle: %w", err)
		}
		f.oracles = append(f.oracles, o)
		f.replicas = append(f.replicas, httptest.NewServer(wrap(tr, "server", r, server.New(o, server.Config{}))))
		urls = append(urls, f.replicas[r].URL)
	}
	f.transport = &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 64}
	var rt http.RoundTripper = f.transport
	if tr != nil {
		rt = roundTripper{t: tr, base: f.transport}
	}
	var err error
	f.router, err = router.New(router.Config{Replicas: urls, Client: &http.Client{Transport: rt}})
	if err != nil {
		f.close()
		return nil, fmt.Errorf("new router: %w", err)
	}
	f.router.Start()
	f.front = httptest.NewServer(wrap(tr, "router", -1, f.router))
	start := time.Now()
	if err := postWarm(f.front.URL); err != nil {
		f.close()
		return nil, err
	}
	f.warm = time.Since(start)
	return f, nil
}

// setupPaths builds one server over a tracked oracle warmed by the §8
// solve and compacted, under the given provenance byte budget.
func setupPaths(inst *instance, cfg config, budget int64, tr *tracer) (*fleet, error) {
	g := genGraph(inst.seed)
	opts := inst.options(cfg.procs)
	opts.TrackPaths = true
	opts.MaxProvenanceBytes = budget
	// Admission for on-demand rebuilds is sized so that the offered
	// load alone never trips it: each of the clients' in-flight
	// batches fans out to at most procs parallel builds.
	opts.MaxProvenanceRebuilds = cfg.clients * cfg.procs
	o, err := msrp.NewOracle(g, evenSources(g.NumVertices(), instSigma), opts)
	if err != nil {
		return nil, fmt.Errorf("new oracle: %w", err)
	}
	start := time.Now()
	if err := o.Warm(); err != nil {
		return nil, fmt.Errorf("warm: %w", err)
	}
	f := &fleet{oracles: []*msrp.Oracle{o}, warm: time.Since(start)}
	f.replicas = []*httptest.Server{httptest.NewServer(wrap(tr, "server", 0, server.New(o, server.Config{})))}
	f.front = f.replicas[0]
	return f, nil
}

func postWarm(url string) error {
	resp, err := http.Post(url+"/v1/warm", "application/json", nil)
	if err != nil {
		return fmt.Errorf("warm: %w", err)
	}
	defer resp.Body.Close()
	var wr server.WarmResponse
	if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil {
		return fmt.Errorf("warm: decode: %w", err)
	}
	if resp.StatusCode != http.StatusOK || wr.Error != "" {
		return fmt.Errorf("warm: status %d: %s", resp.StatusCode, wr.Error)
	}
	return nil
}

func heapLiveMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// serveRun accumulates a serving run across its instances.
type serveRun struct {
	setups samples
	// warms holds each instance's fastest fleet warm.
	warms samples
	// heapMB is the live heap once the first instance's fleet is
	// ready, before any traffic.
	heapMB float64
	// windows holds every nominal-rate window.
	windows []window
	nominal []*sent
	ladder  []stepRow
}

// runServe measures a serving workload on each of the run's instances
// in turn: it builds the fleet (timed, setupReps times), then offers
// the nominal rate for an equal share of half the run. The last
// instance then climbs the rate ladder for a quarter of the run. A
// traced run uses one instance and no ladder.
//
// On a shared host, neighbours slow everything for seconds at a time,
// so the nominal p50 and p90 are medians, over the quieter half of the
// one-second windows, of each window's percentile, and solve_s is the
// mean over instances of the fastest warm. Only the p50 is bounded:
// when the hypervisor steals a tenth of the CPU time, the p90 of a
// sub-millisecond batch doubles and the p99 more, whatever the system
// does, so they are printed for the reader but gate nothing.
func runServe(cfg config, spec serveSpec) (*report, error) {
	n := spec.instances
	if cfg.trace {
		n = 1
	}
	rep := newReport()
	var run serveRun
	for i, inst := range newInstances(cfg.seed, n) {
		if err := serveInstance(cfg, spec, inst, rep, &run, i == n-1); err != nil {
			return nil, err
		}
	}
	rep.set("setup_s", run.setups.median().Seconds())
	rep.set("solve_s", run.warms.mean().Seconds())
	rep.set("heap_live_mb", run.heapMB)
	rep.record["setupSeconds"] = secondsOf(run.setups)
	rep.record["warmSeconds"] = secondsOf(run.warms)
	if cfg.trace {
		return rep, nil
	}
	var p50, p90 []float64
	for _, w := range quietHalf(run.windows) {
		p50 = append(p50, w.P50ms)
		p90 = append(p90, w.P90ms)
	}
	rep.set("batch_p50_ms", medianOf(p50))
	rep.extra("batch_p90_ms", medianOf(p90), "ms")
	var lat samples
	for _, b := range run.nominal {
		lat = append(lat, b.latency())
	}
	rep.extra("batch_p99_ms", ms(lat.quantile(0.99)), "ms")
	rep.record["windows"] = run.windows
	rep.extra("batches_nominal", float64(len(run.nominal)), "count")
	rep.extra("client_late_p99_ms", run.ladder[0].LateP99ms, "ms")
	maxRate := 0.0
	for _, row := range run.ladder {
		if !row.Meets {
			break
		}
		maxRate = row.RateBPS
	}
	rep.extra("max_rate_bps", maxRate, "1/s")
	rep.record["ladder"] = run.ladder
	rep.record["p99LimitMs"] = ms(spec.p99Limit)
	return rep, nil
}

// serveInstance runs one instance's share of a serving run.
func serveInstance(cfg config, spec serveSpec, inst *instance, rep *report, run *serveRun, last bool) error {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var f *fleet
	var budget int64
	var warm time.Duration
	for r := 0; r < spec.setupReps; r++ {
		if f != nil {
			if !spec.routed {
				budget = int64(provBudgetShare * float64(f.oracles[0].Stats().ProvenanceCompactedBytes))
				rep.record["provenanceBudgetBytes"] = budget
			}
			f.close()
		}
		start := time.Now()
		var err error
		if spec.routed {
			f, err = setupRouted(inst, cfg, tr)
		} else {
			f, err = setupPaths(inst, cfg, budget, tr)
		}
		if err != nil {
			return err
		}
		run.setups = append(run.setups, time.Since(start))
		if warm == 0 || f.warm < warm {
			warm = f.warm
		}
	}
	defer f.close()
	if !spec.routed && budget <= 0 {
		return fmt.Errorf("tracked warm retained no compacted provenance")
	}
	run.warms = append(run.warms, warm)
	if run.heapMB == 0 {
		run.heapMB = heapLiveMB()
	}

	lg := newLoadGen(f.front.URL, cfg.clients, newQueryGen(inst, spec.mix, inst.seed), tr)
	defer lg.close()
	if cfg.trace {
		return traceServe(cfg, spec, inst, f, lg, tr, rep)
	}

	seg := cfg.seconds / 2 / time.Duration(spec.instances)
	steal := startStealSampler(windowLen / 10)
	batches, t0 := lg.run(spec.nominal, seg)
	time.Sleep(time.Until(t0.Add(seg)))
	steal.close()
	rep.judge(inst, batches)
	run.nominal = append(run.nominal, batches...)
	w := min(windowLen, seg)
	for lo := time.Duration(0); lo+w <= seg; lo += w {
		var lat samples
		for _, b := range batches {
			if b.due >= lo && b.due < lo+w {
				lat = append(lat, b.latency())
			}
		}
		run.windows = append(run.windows, window{
			P50ms: ms(lat.median()),
			P90ms: ms(lat.quantile(0.9)),
			Steal: steal.frac(t0.Add(lo), t0.Add(lo+w)),
		})
	}
	if !last {
		return nil
	}
	run.ladder = append(run.ladder, summarise(spec.nominal, seg, run.nominal, spec.p99Limit, cfg.clients))
	stepDur := cfg.seconds / 4 / time.Duration(len(spec.ladder))
	for _, rate := range spec.ladder {
		if !run.ladder[len(run.ladder)-1].Meets {
			break
		}
		bs, _ := lg.run(rate, stepDur)
		rep.judge(inst, bs)
		run.ladder = append(run.ladder, summarise(rate, stepDur, bs, spec.p99Limit, cfg.clients))
	}
	rep.record["oracleStats"] = oracleStats(f)
	if spec.routed {
		st, err := routerStats(f.front.URL)
		if err != nil {
			return err
		}
		rep.record["routerStats"] = st
	}
	return nil
}

func secondsOf(s samples) []float64 {
	out := make([]float64, len(s))
	for i, d := range s {
		out[i] = d.Seconds()
	}
	return out
}

func oracleStats(f *fleet) []msrp.OracleStats {
	var out []msrp.OracleStats
	for _, o := range f.oracles {
		out = append(out, o.Stats())
	}
	return out
}

func routerStats(url string) (*router.StatsResponse, error) {
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		return nil, fmt.Errorf("router stats: %w", err)
	}
	defer resp.Body.Close()
	var st router.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("router stats: decode: %w", err)
	}
	return &st, nil
}

// traceServe is the traced serving run: half the nominal phase with
// the span recorders idle, half with them on (the difference is the
// tracing overhead), then a direct replay of every batch a server
// received against its oracle.
func traceServe(cfg config, spec serveSpec, inst *instance, f *fleet, lg *loadGen, tr *tracer, rep *report) error {
	if !spec.routed {
		if err := traceTrackedSolve(inst, cfg, tr, rep); err != nil {
			return err
		}
	} else {
		if err := countLandmarks(inst, cfg, rep); err != nil {
			return err
		}
	}
	half := cfg.seconds * 3 / 10
	plain, _ := lg.run(spec.nominal, half)
	rep.judge(inst, plain)
	tr.on.Store(true)
	traced, _ := lg.run(spec.nominal, half)
	tr.on.Store(false)
	rep.judge(inst, traced)
	var lp, lt, late samples
	for _, b := range plain {
		lp = append(lp, b.latency())
	}
	for _, b := range traced {
		lt = append(lt, b.latency())
		late = append(late, b.late)
	}
	rep.set("trace.overhead_ms", ms(lt.median())-ms(lp.median()))
	rep.set("client.late_p99_ms", ms(late.quantile(0.99)))
	rep.set("client.batches", float64(len(traced)))

	spans := tr.recorded()
	tree := buildTree(spans)
	if bad := tree.validate(); len(bad) > 0 {
		return fmt.Errorf("span nesting: %d violations, first: %s", len(bad), bad[0])
	}
	var serverDur, routerDur, routerSelf, hops, oracleDur, serverSelf samples
	var respBytes int64
	var servers int
	for _, s := range spans {
		switch s.Name {
		case "client", "roundtrip":
			for _, k := range tree.children[s.ID] {
				hops = append(hops, s.dur()-k.dur())
			}
		case "router":
			routerDur = append(routerDur, s.dur())
			routerSelf = append(routerSelf, tree.selfTime(s))
		case "server":
			servers++
			respBytes += s.Bytes
			serverDur = append(serverDur, s.dur())
			var req server.QueryRequest
			if err := json.NewDecoder(bytes.NewReader(s.body)).Decode(&req); err != nil {
				return fmt.Errorf("replay: decode recorded batch: %w", err)
			}
			qs := make([]msrp.Query, len(req.Queries))
			for i, q := range req.Queries {
				qs[i] = msrp.Query{Source: q.Source, Target: q.Target, U: q.U, V: q.V, Paths: q.Paths}
			}
			start := time.Now()
			f.oracles[s.replica].QueryBatch(qs)
			d := time.Since(start)
			oracleDur = append(oracleDur, d)
			serverSelf = append(serverSelf, s.dur()-d)
		}
	}
	rep.set("server.handler_us_p50", us(serverDur.median()))
	rep.set("server.handler_us_p99", us(serverDur.quantile(0.99)))
	rep.set("server.self_us_p50", us(serverSelf.median()))
	rep.set("server.requests", float64(servers))
	rep.set("server.resp_bytes_mean", ratio(float64(respBytes), float64(servers)))
	rep.set("oracle.batch_us_p50", us(oracleDur.median()))
	rep.set("oracle.batch_us_p99", us(oracleDur.quantile(0.99)))
	rep.set("transport.hop_us_p50", us(hops.median()))
	rep.set("router.handler_us_p50", us(routerDur.median()))
	rep.set("router.handler_us_p99", us(routerDur.quantile(0.99)))
	rep.set("router.self_us_p50", us(routerSelf.median()))

	var hits, misses, builds, rejections, evictions, rebuilds, rejects, provBytes int64
	var buildTime time.Duration
	for _, st := range oracleStats(f) {
		hits += st.Hits
		misses += st.Misses
		builds += st.Builds
		buildTime += st.BuildTime
		rejections += st.Rejections
		evictions += st.ProvenanceEvictions
		rebuilds += st.ProvenanceRebuilds
		rejects += st.ProvenanceRebuildRejects
		provBytes += st.ProvenanceBytes
	}
	rep.record["oracleStats"] = oracleStats(f)
	rep.set("oracle.lookups", float64(hits+misses))
	rep.set("oracle.hit_rate", ratio(float64(hits), float64(hits+misses)))
	rep.set("oracle.prov_evictions", float64(evictions))
	rep.set("oracle.prov_rebuilds", float64(rebuilds))
	rep.set("oracle.rebuild_rejects", float64(rejects))
	rep.set("oracle.prov_bytes", float64(provBytes))
	rep.set("server.rejections", float64(rejections))
	rep.set("ssrp.builds", float64(builds))
	rep.set("ssrp.build_ms_mean", ratio(ms(buildTime), float64(builds)))
	if spec.routed {
		var newOracle samples
		for _, s := range spans {
			if s.Name == "new_oracle" {
				newOracle = append(newOracle, s.dur())
			}
		}
		rep.set("ssrp.shared_ms", ms(newOracle.median()))
		st, err := routerStats(f.front.URL)
		if err != nil {
			return err
		}
		rep.record["routerStats"] = st
		rs := st.Router
		rep.set("router.batches", float64(rs.Batches))
		rep.set("router.subbatches_per_batch", ratio(float64(rs.SubBatches), float64(rs.Batches)))
		rep.set("router.retries", float64(rs.Retries))
		rep.set("router.failovers", float64(rs.Failovers))
		rep.set("router.route_errors", float64(rs.RouteErrors))
	}
	return writeSpans(cfg.spanPath(), spans)
}

// countLandmarks records the landmark family size of the instance's
// shared preprocessing (the same family every oracle samples).
func countLandmarks(inst *instance, cfg config, rep *report) error {
	sh, err := ssrp.NewShared(inst.g.Internal(), inst.sources32(), params(inst.options(cfg.procs)))
	if err != nil {
		return err
	}
	rep.set("ssrp.landmarks", float64(len(sh.List)))
	return nil
}

// traceTrackedSolve runs the tracked §8 solve as its three parts,
// each in its own span: the shared preprocessing, the solve, and the
// provenance compaction.
func traceTrackedSolve(inst *instance, cfg config, tr *tracer, rep *report) error {
	p := params(inst.options(cfg.procs))
	p.TrackPaths = true
	var sh *ssrp.Shared
	var sol *msrpcore.Solution
	var err error
	var shared, solve, compact span
	var rawBytes int64
	root := tr.timed("tracked_solve", 0, func(id int64) {
		shared = tr.timed("shared", id, func(int64) { sh, err = ssrp.NewShared(inst.g.Internal(), inst.sources32(), p) })
		if err != nil {
			return
		}
		solve = tr.timed("solve_shared", id, func(int64) { sol, err = msrpcore.SolveShared(sh) })
		if err != nil {
			return
		}
		rawBytes = sol.Stats.ProvenanceBytes
		compact = tr.timed("compact", id, func(int64) { err = sol.CompactProvenance() })
	})
	if err != nil {
		return fmt.Errorf("tracked solve: %w", err)
	}
	rep.set("ssrp.shared_ms", ms(shared.dur()))
	rep.set("msrp.compact_ms", ms(compact.dur()))
	rep.set("msrp.prov_raw_bytes", float64(rawBytes))
	rep.set("msrp.prov_compact_bytes", float64(sol.Stats.ProvenanceBytes))
	rep.set("msrp.span_gap_ms", ms(root.dur()-shared.dur()-solve.dur()-compact.dur()))
	setSolveMetrics(rep, sh, sol.Stats, solve.dur())
	// The sequential-solve comparison runs on the solve workload only.
	rep.set("msrp.solve_ms_p1", 0)
	return nil
}
