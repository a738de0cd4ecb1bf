// Command perfbench is the repository benchmark. It runs one workload
// on inputs generated from a seed, checks every answer against the
// brute-force reference, and prints the workload's metrics, the last
// line being one JSON object:
//
//	bash perfbench/run.sh --workload solve --seed 1 --seconds 30 --trace 0
//
// Workloads (BENCHMARK.json says why each was chosen):
//
//	solve         msrp.MultiSource cycled over 8 instances (no serving layer)
//	serve-routed  open-loop batches through a router to two replicas
//	serve-paths   open-loop length and path batches to one tracked server
//
// --trace 0 prints the end-to-end metrics; --trace 1 is a separate run
// that records spans around the calls into each layer and prints the
// per-layer metrics. Full records (per-rate ladder rows, counter
// snapshots, spans) go to .bench_build/records/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// procs is the engine parallelism and the number of client
	// connections: the host's CPU count, capped at 2.
	procs, clients int
	outDir         string
}

func (c config) name() string {
	t := 0
	if c.trace {
		t = 1
	}
	return fmt.Sprintf("%s-seed%d-trace%d", c.workload, c.seed, t)
}

func (c config) spanPath() string { return filepath.Join(c.outDir, c.name()+"-spans.jsonl") }

// metricDef names a reported metric and its unit. The lists below must
// match BENCHMARK.json (a test checks it).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"solve_s", "s"},
	{"batch_p50_ms", "ms"},
	{"heap_live_mb", "MB"},
}

var perLayer = []metricDef{
	{"ssrp.shared_ms", "ms"},
	{"ssrp.landmarks", "count"},
	{"ssrp.build_ms_mean", "ms"},
	{"ssrp.builds", "count"},
	{"msrp.solve_ms", "ms"},
	{"msrp.solve_ms_p1", "ms"},
	{"msrp.span_gap_ms", "ms"},
	{"msrp.build_cpu_ms", "ms"},
	{"msrp.enumerate_cpu_ms", "ms"},
	{"msrp.merge_cpu_ms", "ms"},
	{"msrp.center_landmark_cpu_ms", "ms"},
	{"msrp.assembly_cpu_ms", "ms"},
	{"msrp.cl_arcs", "count"},
	{"msrp.cl_nodes", "count"},
	{"msrp.seed_count", "count"},
	{"msrp.centers", "count"},
	{"msrp.sweeps", "count"},
	{"msrp.sweep_improved", "count"},
	{"msrp.compact_ms", "ms"},
	{"msrp.prov_raw_bytes", "bytes"},
	{"msrp.prov_compact_bytes", "bytes"},
	{"msrp.peak_seed_path_bytes", "bytes"},
	{"engine.steals", "count"},
	{"engine.scratch_allocs", "count"},
	{"engine.scratch_bytes", "bytes"},
	{"engine.centers_ready", "count"},
	{"engine.centers_overlapped", "count"},
	{"oracle.batch_us_p50", "us"},
	{"oracle.batch_us_p99", "us"},
	{"oracle.hit_rate", "ratio"},
	{"oracle.lookups", "count"},
	{"oracle.prov_evictions", "count"},
	{"oracle.prov_rebuilds", "count"},
	{"oracle.rebuild_rejects", "count"},
	{"oracle.prov_bytes", "bytes"},
	{"server.handler_us_p50", "us"},
	{"server.handler_us_p99", "us"},
	{"server.self_us_p50", "us"},
	{"server.rejections", "count"},
	{"server.resp_bytes_mean", "bytes"},
	{"server.requests", "count"},
	{"transport.hop_us_p50", "us"},
	{"router.handler_us_p50", "us"},
	{"router.handler_us_p99", "us"},
	{"router.self_us_p50", "us"},
	{"router.subbatches_per_batch", "ratio"},
	{"router.batches", "count"},
	{"router.retries", "count"},
	{"router.failovers", "count"},
	{"router.route_errors", "count"},
	{"client.late_p99_ms", "ms"},
	{"client.batches", "count"},
	{"trace.overhead_ms", "ms"},
}

// bypassed lists, per workload, the layers that do not run on it;
// their per-layer metrics read 0.
var bypassed = map[string][]string{
	"solve":        {"oracle", "server", "transport", "router", "client"},
	"serve-routed": {"msrp", "engine"},
	"serve-paths":  {"router"},
}

// report collects a run's outcome.
type report struct {
	tally
	values map[string]float64
	extras []extra
	record map[string]any
}

// extra is a metric printed for a reader but not part of the result
// line.
type extra struct {
	name  string
	value float64
	unit  string
}

func newReport() *report {
	return &report{values: map[string]float64{}, record: map[string]any{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) extra(name string, v float64, unit string) {
	r.extras = append(r.extras, extra{name, v, unit})
}

// judge checks every sent batch's answers.
func (r *report) judge(inst *instance, batches []*sent) {
	for _, b := range batches {
		if !b.skipped {
			r.tally.add(checkBatch(inst, b.items, b.resp))
		}
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "solve, serve-routed or serve-paths")
	seed := flag.Uint64("seed", 1, "workload seed; every input is generated from it")
	seconds := flag.Int("seconds", 30, "measured time per run")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	run := map[string]func(config) (*report, error){
		"solve":        runSolve,
		"serve-routed": func(c config) (*report, error) { return runServe(c, routedSpec) },
		"serve-paths":  func(c config) (*report, error) { return runServe(c, pathsSpec) },
	}[*workload]
	if run == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload solve|serve-routed|serve-paths --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	procs := min(runtime.NumCPU(), 2)
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		procs:    procs,
		clients:  procs,
		outDir:   filepath.Join(".bench_build", "records"),
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	header := map[string]any{
		"workload":    cfg.workload,
		"seed":        cfg.seed,
		"seconds":     *seconds,
		"trace":       cfg.trace,
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"numCPU":      runtime.NumCPU(),
		"goVersion":   runtime.Version(),
		"clients":     cfg.clients,
		"parallelism": cfg.procs,
		"instances": fmt.Sprintf("random connected graphs n=%d m=%d, sigma=%d evenly spread sources, paper constants; "+
			"every graph and solver seed derives from --seed", instN, instM, instSigma),
	}
	hb, _ := json.Marshal(header)
	fmt.Printf("header %s\n", hb)

	steal0, stealOK := hostSteal()
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		fillBypassed(rep, cfg.workload)
	}
	res := result{Correct: rep.wrong == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s did not measure %s\n", cfg.workload, d.name)
			os.Exit(1)
		}
		res.Metrics[d.name] = metricOut{v, d.unit}
		fmt.Printf("%-30s %14.6g %s\n", d.name, v, d.unit)
	}
	if steal1, ok := hostSteal(); ok && stealOK {
		rep.extra("host_steal_frac", steal1.frac(steal0), "ratio")
	}
	rep.extra("failed_frac", ratio(float64(rep.failed), float64(rep.attempted)), "ratio")
	rep.extra("wrong_answers", float64(rep.wrong), "count")
	for _, e := range rep.extras {
		fmt.Printf("%-30s %14.6g %s\n", e.name, e.value, e.unit)
	}
	if rep.firstWrong != "" {
		fmt.Printf("first wrong answer: %s\n", rep.firstWrong)
	}
	if err := writeRecord(cfg, header, rep, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// fillBypassed sets the per-layer metrics of layers the workload does
// not run to 0.
func fillBypassed(rep *report, workload string) {
	for _, d := range perLayer {
		layer, _, _ := strings.Cut(d.name, ".")
		for _, b := range bypassed[workload] {
			if layer == b {
				if _, ok := rep.values[d.name]; !ok {
					rep.values[d.name] = 0
				}
			}
		}
	}
}

func writeRecord(cfg config, header map[string]any, rep *report, res result) error {
	extras := map[string]float64{}
	for _, e := range rep.extras {
		extras[e.name] = e.value
	}
	names := make([]string, 0, len(rep.values))
	for n := range rep.values {
		names = append(names, n)
	}
	sort.Strings(names)
	all := map[string]float64{}
	for _, n := range names {
		all[n] = rep.values[n]
	}
	b, err := json.MarshalIndent(map[string]any{
		"header":  header,
		"result":  res,
		"values":  all,
		"extras":  extras,
		"wrong":   rep.wrong,
		"details": rep.record,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, cfg.name()+".json"), b, 0o644)
}
