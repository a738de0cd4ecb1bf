package msrp

import (
	"errors"
	"sync"
	"testing"
	"time"

	"msrp/internal/graph"
	msrpcore "msrp/internal/msrp"
	"msrp/internal/rp"
	"msrp/internal/xrand"
)

// provOracle builds a warmed path-tracking oracle (6 sources on a
// chorded cycle) under the given provenance byte budget.
func provOracle(t *testing.T, budget int64) (*graph.Graph, *Oracle, []int) {
	t.Helper()
	ig := graph.CycleWithChords(xrand.New(3), 96, 10)
	n := ig.NumVertices()
	sources := make([]int, 6)
	for i := range sources {
		sources[i] = i * n / 6
	}
	opts := testOptions(6)
	opts.SampleBoost = 4 // these tests exercise the tier, not w.h.p. exactness
	opts.TrackPaths = true
	opts.MaxProvenanceBytes = budget
	o, err := NewOracle(WrapGraph(ig), sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Warm(); err != nil {
		t.Fatal(err)
	}
	return ig, o, sources
}

var fullProvOnce struct {
	sync.Once
	bytes int64
}

// fullProvBytes measures the compacted provenance plane of an
// unbudgeted warm — the reference the budgeted tests size against
// (measured once; the warm is the expensive part of these tests).
func fullProvBytes(t *testing.T) int64 {
	t.Helper()
	fullProvOnce.Do(func() {
		_, free, _ := provOracle(t, 0)
		st := free.Stats()
		if st.ProvenanceBytes == 0 {
			t.Fatal("unlimited warm retained no provenance")
		}
		if st.ProvenanceEvictions != 0 {
			t.Fatalf("unlimited warm evicted provenance %d times", st.ProvenanceEvictions)
		}
		if st.ProvenanceRawBytes < 5*st.ProvenanceCompactedBytes {
			t.Fatalf("compaction ratio collapsed: raw %d, compacted %d",
				st.ProvenanceRawBytes, st.ProvenanceCompactedBytes)
		}
		fullProvOnce.bytes = st.ProvenanceBytes
	})
	if fullProvOnce.bytes == 0 {
		t.Fatal("reference measurement failed in an earlier test")
	}
	return fullProvOnce.bytes
}

// provQuery synthesizes a valid on-canonical-path query for the source.
func provQuery(t *testing.T, ig *graph.Graph, o *Oracle, s, target int) Query {
	t.Helper()
	path := o.Result(s).PathTo(target)
	if len(path) < 2 {
		t.Fatalf("no canonical path %d→%d", s, target)
	}
	return Query{Source: s, Target: target, U: int(path[0]), V: int(path[1])}
}

// checkServedPath machine-validates a served path against the graph.
func checkServedPath(t *testing.T, ig *graph.Graph, q Query, path []int32, length int32) {
	t.Helper()
	e, ok := ig.EdgeID(q.U, q.V)
	if !ok {
		t.Fatalf("avoided edge {%d,%d} missing from graph", q.U, q.V)
	}
	if err := rp.CheckReplacementPath(ig, path, int32(q.Source), int32(q.Target), e, length); err != nil {
		t.Fatalf("served path failed validation: %v", err)
	}
}

// TestProvenanceBudgetBoundedAndRebuilds: a warm under a budget strips
// cold sources without ever letting the gauge exceed the budget; path
// queries against stripped sources rebuild on demand and still serve
// machine-validated paths whose lengths agree with the cached ones.
func TestProvenanceBudgetBoundedAndRebuilds(t *testing.T) {
	full := fullProvBytes(t)
	budget := full / 3
	ig, o, sources := provOracle(t, budget)

	st := o.Stats()
	if st.ProvenanceBytes > budget {
		t.Fatalf("post-warm gauge %d exceeds budget %d", st.ProvenanceBytes, budget)
	}
	if st.ProvenanceEvictions == 0 {
		t.Fatalf("budget %d of %d stripped nothing", budget, full)
	}

	n := ig.NumVertices()
	for _, s := range sources {
		q := provQuery(t, ig, o, s, (s+40)%n)
		ans := o.QueryBatch([]Query{q})[0]
		if ans.Err != nil {
			t.Fatalf("length query %+v: %v", q, ans.Err)
		}
		path, err := o.QueryPath(q.Source, q.Target, q.U, q.V)
		if err != nil {
			t.Fatalf("path query %+v: %v", q, err)
		}
		if ans.Length == NoPath {
			continue
		}
		checkServedPath(t, ig, q, path, ans.Length)
		if st := o.Stats(); st.ProvenanceBytes > budget {
			t.Fatalf("gauge %d exceeded budget %d mid-serve", st.ProvenanceBytes, budget)
		}
	}
	if st := o.Stats(); st.ProvenanceRebuilds == 0 {
		t.Fatal("path queries against stripped sources triggered no rebuilds")
	}
}

// TestWarmCompactionFailureInstallsNothing: post-warm compaction
// re-explains every winning answer, so its failure is what a broken
// provenance chain looks like. Such a Warm must fail loudly and leave
// the oracle exactly as before it — no cached source, no warm counted,
// no provenance retained — and a later Warm must still succeed.
func TestWarmCompactionFailureInstallsNothing(t *testing.T) {
	boom := errors.New("explain failed")
	compactProvenance = func(*msrpcore.Solution) error { return boom }
	defer func() { compactProvenance = (*msrpcore.Solution).CompactProvenance }()

	ig := graph.CycleWithChords(xrand.New(3), 96, 10)
	opts := testOptions(6)
	opts.SampleBoost = 4
	opts.TrackPaths = true
	o, err := NewOracle(WrapGraph(ig), []int{0, 32, 64}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Warm(); !errors.Is(err, boom) {
		t.Fatalf("Warm with failing compaction: err = %v, want %v", err, boom)
	}
	st := o.Stats()
	if got := o.CachedSources(); got != 0 || st.Warms != 0 || st.ProvenanceBytes != 0 ||
		st.ProvenanceRawBytes != 0 || st.ProvenanceCompactedBytes != 0 {
		t.Fatalf("failed warm installed state: cached %d, stats %+v", got, st)
	}

	compactProvenance = (*msrpcore.Solution).CompactProvenance
	if err := o.Warm(); err != nil {
		t.Fatal(err)
	}
	st = o.Stats()
	if got := o.CachedSources(); got != 3 || st.Warms != 1 || st.ProvenanceCompactedBytes == 0 {
		t.Fatalf("retried warm: cached %d, stats %+v", got, st)
	}
}

// TestProvenanceRebuildSingleFlight: concurrent path queries against
// the same stripped source share one rebuild — the single-flight
// contract extends to the provenance tier.
func TestProvenanceRebuildSingleFlight(t *testing.T) {
	full := fullProvBytes(t)
	ig, o, sources := provOracle(t, full/3)

	// The first-warmed source is the provenance LRU's coldest entry, so
	// the budget provably stripped it.
	s := sources[0]
	q := provQuery(t, ig, o, s, (s+40)%ig.NumVertices())
	length := o.QueryBatch([]Query{q})[0].Length

	const goroutines = 16
	paths := make([][]int32, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			paths[i], errs[i] = o.QueryPath(q.Source, q.Target, q.U, q.V)
		}(i)
	}
	wg.Wait()

	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		checkServedPath(t, ig, q, paths[i], length)
		for j := range paths[i] {
			if paths[i][j] != paths[0][j] {
				t.Fatalf("goroutine %d served a different path than goroutine 0", i)
			}
		}
	}
	if st := o.Stats(); st.ProvenanceRebuilds != 1 {
		t.Fatalf("%d concurrent path queries caused %d rebuilds, want exactly 1",
			goroutines, st.ProvenanceRebuilds)
	}
}

// TestProvenanceEvictionRaceChurn hammers a tight budget from many
// goroutines so path queries race the provenance LRU's strip/rebuild
// cycle (run under -race); every served path must stay valid and the
// gauge must stay bounded throughout.
func TestProvenanceEvictionRaceChurn(t *testing.T) {
	full := fullProvBytes(t)
	budget := full / 4
	ig, o, sources := provOracle(t, budget)
	n := ig.NumVertices()

	// Pre-derive one valid query per source (materializes nothing new —
	// every source is warm).
	queries := make([]Query, len(sources))
	lengths := make([]int32, len(sources))
	for i, s := range sources {
		queries[i] = provQuery(t, ig, o, s, (s+n/3)%n)
		lengths[i] = o.QueryBatch([]Query{queries[i]})[0].Length
	}

	const goroutines = 8
	var wg sync.WaitGroup
	failures := make(chan string, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(uint64(w) + 1)
			for it := 0; it < 12; it++ {
				qi := rng.Intn(len(queries))
				q := queries[qi]
				path, err := queryPathRetry(o, q)
				if err != nil {
					failures <- err.Error()
					return
				}
				if lengths[qi] != NoPath && (len(path) == 0 || int32(len(path)-1) != lengths[qi]) {
					failures <- "served path length diverged from cached length"
					return
				}
				if st := o.Stats(); st.ProvenanceBytes > budget {
					failures <- "gauge exceeded budget under churn"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(failures)
	for f := range failures {
		t.Fatal(f)
	}
	st := o.Stats()
	if st.ProvenanceRebuilds == 0 {
		t.Fatal("churn run triggered no rebuilds; budget too loose to exercise the race")
	}
	t.Logf("churn: %d evictions, %d rebuilds, gauge %d ≤ budget %d",
		st.ProvenanceEvictions, st.ProvenanceRebuilds, st.ProvenanceBytes, budget)
}

// queryPathRetry is the documented client contract for a saturated
// rebuild tier: back off briefly and retry. Every other error is final.
func queryPathRetry(o *Oracle, q Query) ([]int32, error) {
	for {
		path, err := o.QueryPath(q.Source, q.Target, q.U, q.V)
		if !errors.Is(err, ErrRebuildSaturated) {
			return path, err
		}
		time.Sleep(time.Millisecond)
	}
}

// TestProvenanceRebuildAdmissionStorm: with the rebuild semaphore
// clamped to one slot and a budget that strips every plane, a storm of
// path queries against distinct sources never runs two tracked
// rebuilds at once — over-limit leaders fail fast with
// ErrRebuildSaturated instead of queueing, and succeed on retry.
// Single-flight joiners of an in-flight build are not admission
// checked, so only cross-source concurrency contends (run under -race).
func TestProvenanceRebuildAdmissionStorm(t *testing.T) {
	ig := graph.CycleWithChords(xrand.New(3), 96, 10)
	n := ig.NumVertices()
	sources := make([]int, 6)
	for i := range sources {
		sources[i] = i * n / 6
	}
	opts := testOptions(6)
	opts.SampleBoost = 4
	opts.TrackPaths = true
	opts.MaxProvenanceBytes = 1 // strips every plane: all path queries rebuild
	opts.MaxProvenanceRebuilds = 1
	o, err := NewOracle(WrapGraph(ig), sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Warm(); err != nil {
		t.Fatal(err)
	}

	queries := make([]Query, len(sources))
	lengths := make([]int32, len(sources))
	for i, s := range sources {
		queries[i] = provQuery(t, ig, o, s, (s+n/3)%n)
		lengths[i] = o.QueryBatch([]Query{queries[i]})[0].Length
	}

	const goroutines = 16
	var wg sync.WaitGroup
	failures := make(chan string, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(uint64(w) + 101)
			for it := 0; it < 8; it++ {
				qi := rng.Intn(len(queries))
				q := queries[qi]
				path, err := queryPathRetry(o, q)
				if err != nil {
					failures <- err.Error()
					return
				}
				if lengths[qi] != NoPath && (len(path) == 0 || int32(len(path)-1) != lengths[qi]) {
					failures <- "served path length diverged from cached length"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(failures)
	for f := range failures {
		t.Fatal(f)
	}
	if peak := o.rebuildPeak.Load(); peak > 1 {
		t.Fatalf("rebuild concurrency peaked at %d with a 1-slot semaphore", peak)
	}
	st := o.Stats()
	if st.ProvenanceRebuildRejects == 0 {
		t.Fatal("storm never contended the 1-slot semaphore; admission was not exercised")
	}
	t.Logf("storm: %d rebuilds, %d admission rejects, peak concurrency %d",
		st.ProvenanceRebuilds, st.ProvenanceRebuildRejects, o.rebuildPeak.Load())
}
