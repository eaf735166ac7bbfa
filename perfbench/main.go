// Command perfbench is the repository benchmark. It drives the counting
// service and library through one of four named workloads, checks every
// answer against an oracle computed without the solver, and prints a
// report followed, as its last line, by one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload serve-mixed --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run is split into an untraced half and a traced half that repeats the
// same passes with every call into a layer wrapped in a span, and the
// metrics are the per-layer ones. BENCHMARK.json at the repository root
// lists the workloads and metrics; README.md in this directory explains
// them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/incompletedb/incompletedb/internal/server"
)

// setupRuns is how many times each run builds its environment; setup_s
// is the median, and the last environment is the one measured.
const setupRuns = 3

// outDir holds the job store and the span dump; run.sh keeps its build
// output there too, and the repository ignores it.
const outDir = ".bench_build"

// op is one operation of a workload.
type op struct {
	// class groups operations in the report ("read", "write", …).
	class string
	// work is what the operation answers for: facts for an ingest request,
	// the database's whole valuation space for a count.
	work float64
	// run performs the operation and checks its answer. tr is nil in
	// untraced phases.
	run func(ctx context.Context, tr *opTrace) error
}

// env is one set-up workload, ready to run.
type env interface {
	// cycle returns client c's k-th pass. The load loop checks its
	// deadline only between passes, so every run measures whole passes
	// and the mix of operations does not depend on where time ran out.
	// Passes with different k use fresh inputs wherever the workload
	// wants cache misses.
	cycle(c, k int) []op
	// counters snapshots the program's own counters (cache, jobs, cluster).
	counters() server.Stats
	// close stops everything the environment started and waits for it.
	close()
}

// workload describes one named workload.
type workload struct {
	name string
	// clients is the number of closed-loop callers.
	clients int
	// overHTTP marks workloads whose untraced operations go through the
	// HTTP server; their traced operations call the handler's public
	// functions directly, so the difference is the transport.
	overHTTP bool
	// workUnit names the throughput metric of op.work ("facts" or
	// "valuations"), empty when the workload has none.
	workUnit string
	setup    func(ctx context.Context, b *bench) (env, error)
}

func workloads(nproc int) []workload {
	return []workload{
		{name: "serve-mixed", clients: min(2, nproc), overHTTP: true, setup: setupServeMixed},
		{name: "ingest-large", clients: 1, overHTTP: true, workUnit: "facts", setup: setupIngest},
		{name: "sweep-cold", clients: 1, workUnit: "valuations", setup: setupSweepCold},
		{name: "jobs-dist", clients: 1, overHTTP: true, workUnit: "valuations", setup: setupJobsDist},
	}
}

// bench holds what every workload shares.
type bench struct {
	seed   int64
	nproc  int
	client *http.Client
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: serve-mixed, ingest-large, sweep-cold or jobs-dist")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 15, "how long the measured phase runs")
	traceMode := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()

	nproc := runtime.NumCPU()
	var w *workload
	for _, c := range workloads(nproc) {
		if c.name == *name {
			w = &c
		}
	}
	if w == nil || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload serve-mixed|ingest-large|sweep-cold|jobs-dist --seed N --seconds S --trace 0|1")
		return 2
	}
	b := &bench{
		seed:  *seed,
		nproc: nproc,
		client: &http.Client{
			Timeout: 60 * time.Second,
			// Never more connections than cores: the clients are closed
			// loops, one connection each.
			Transport: &http.Transport{
				DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
				MaxConnsPerHost:     nproc,
				MaxIdleConnsPerHost: nproc,
			},
		},
	}
	ctx := context.Background()
	rep := &report{workload: w.name}
	rep.env(b, *seconds, *traceMode)

	var e env
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		if e != nil {
			e.close()
		}
		start := time.Now()
		var err error
		e, err = w.setup(ctx, b)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: set-up of %s: %v\n", w.name, err)
			return 1
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	runtime.GC()
	debug.FreeOSMemory()

	budget := time.Duration(*seconds) * time.Second
	var phases []*phase
	if *traceMode == 0 {
		ph := runPhase(ctx, e, w.clients, budget, nil, nil, nil)
		phases = append(phases, ph)
		endToEnd(rep, w, ph, setups)
	} else {
		// The untraced half sets the baseline; the traced half repeats the
		// same number of passes per client, on fresh pass indices (so the
		// cache misses of the untraced half recur), with spans.
		a := runPhase(ctx, e, w.clients, budget/2, nil, nil, nil)
		before := e.counters()
		tr := newTracer()
		bph := runPhase(ctx, e, w.clients, 0, a.cycles, a.cycles, tr)
		after := e.counters()
		phases = append(phases, a, bph)
		endToEnd(rep, w, a, setups)
		perLayer(rep, w, a, tr, before, after)
		if path, err := tr.write(outDir, w.name, b.seed); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		} else {
			rep.line("spans written to %s", path)
		}
	}
	e.close()

	attempted, failed := 0, 0
	for _, ph := range phases {
		for _, o := range ph.outs {
			attempted++
			if o.err != nil {
				failed++
				if failed <= 5 {
					fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", o.class, o.err)
				}
			}
		}
	}
	rep.print(os.Stdout, *traceMode == 1)
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{failed == 0 && attempted > 0, attempted, failed, rep.gated(*traceMode == 1)}
	blob, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(blob))
	if !out.Correct {
		return 1
	}
	return 0
}

// phase is one measured stretch of closed-loop load.
type phase struct {
	outs    []outcome
	elapsed time.Duration
	// cycles is how many whole passes each client completed.
	cycles []int
	// allocBytes is the runtime.MemStats.TotalAlloc delta.
	allocBytes uint64
	// rssPeak is the peak resident set size, in bytes.
	rssPeak uint64
}

// runPhase runs the closed loop: each client runs whole passes, starting
// at pass offset[c], until budget has elapsed, or exactly fixed[c] passes
// when fixed is non-nil. tr, when non-nil, traces every operation.
func runPhase(ctx context.Context, e env, clients int, budget time.Duration, fixed, offset []int, tr *tracer) *phase {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	resetPeakRSS()
	start := time.Now()
	deadline := start.Add(budget)
	outs := make([][]outcome, clients)
	cycles := make([]int, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			first := 0
			if offset != nil {
				first = offset[c]
			}
			for k := 0; ; k++ {
				if fixed != nil && k >= fixed[c] {
					break
				}
				if fixed == nil && k > 0 && !time.Now().Before(deadline) {
					break
				}
				for _, o := range e.cycle(c, first+k) {
					var ot *opTrace
					if tr != nil {
						ot = tr.begin(o.class)
					}
					t0 := time.Now()
					err := o.run(ctx, ot)
					lat := time.Since(t0)
					if ot != nil {
						ot.end()
					}
					outs[c] = append(outs[c], outcome{class: o.class, lat: lat, work: o.work, err: err})
				}
				cycles[c] = k + 1
			}
		}(c)
	}
	wg.Wait()
	ph := &phase{elapsed: time.Since(start), cycles: cycles}
	ph.rssPeak = peakRSS()
	runtime.ReadMemStats(&ms1)
	ph.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	for _, o := range outs {
		ph.outs = append(ph.outs, o...)
	}
	return ph
}

// resetPeakRSS resets the kernel's resident-set high-water mark, so that
// peakRSS reports the peak since the call. Where that is refused the peak
// stays the process's lifetime peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS returns the resident-set high-water mark in bytes, from
// /proc/self/status or, where that is unavailable, from getrusage.
func peakRSS() uint64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseUint(f[1], 10, 64); err == nil {
					return kb * 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		return uint64(ru.Maxrss) * 1024
	}
	return 0
}

// endToEnd fills the end-to-end metrics of an untraced phase.
func endToEnd(rep *report, w *workload, ph *phase, setups []float64) {
	ok := 0
	for _, o := range ph.outs {
		if o.err == nil {
			ok++
		}
	}
	all := latenciesMS(ph.outs)
	rep.add(true, "setup_s", median(setups), "s", len(setups), "median of the set-ups of this run")
	rep.add(true, "ops_per_s", float64(ok)/ph.elapsed.Seconds(), "1/s", ok, fmt.Sprintf("over %.3fs, passes per client %v", ph.elapsed.Seconds(), ph.cycles))
	q1, q3 := quartiles(all)
	rep.add(true, "p50_ms", median(all), "ms", len(all), fmt.Sprintf("quartiles %.4g–%.4g", q1, q3))
	tv, pct := tail(all)
	rep.add(true, "tail_ms", tv, "ms", len(all), fmt.Sprintf("p%.4g: the highest percentile with at least ten samples beyond it", pct))
	rep.add(true, "alloc_mb_per_op", float64(ph.allocBytes)/1e6/float64(max(1, len(ph.outs))), "MB", len(ph.outs), "runtime.MemStats.TotalAlloc delta per op")
	rep.add(false, "rss_peak_mb", float64(ph.rssPeak)/1e6, "MB", 0, "peak resident memory of the process while measuring")
	rep.add(false, "failed_frac", float64(len(ph.outs)-ok)/float64(max(1, len(ph.outs))), "ratio", len(ph.outs), "errors, refusals and wrong answers over attempts")
	switch w.workUnit {
	case "facts":
		rep.add(false, "facts_per_s", throughput(ph.outs, ph.elapsed), "1/s", ok, "facts in answered requests")
	case "valuations":
		rep.add(false, "valuations_per_s", throughput(ph.outs, ph.elapsed), "1/s", ok, "counted valuation space, not swept space")
	}
	if w.name == "serve-mixed" {
		reads := latenciesMS(ph.outs, "read", "classify")
		rep.add(false, "read_p50_ms", median(reads), "ms", len(reads), "cached or planned count and classify ops")
		rep.add(false, "read_p99_ms", percentile(reads, 99), "ms", len(reads), "")
		writes := latenciesMS(ph.outs, "write")
		rep.add(false, "write_p50_ms", median(writes), "ms", len(writes), "add + remove + live read")
	}
	classes := map[string]bool{}
	for _, o := range ph.outs {
		classes[o.class] = true
	}
	names := make([]string, 0, len(classes))
	for c := range classes {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, c := range names {
		xs := latenciesMS(ph.outs, c)
		q1, q3 := quartiles(xs)
		rep.line("class %-12s n=%-6d p50=%.4gms (quartiles %.4g–%.4g) p99=%.4gms", c, len(xs), median(xs), q1, q3, percentile(xs, 99))
	}
}

// spanNames are the spans the traced operations record, one per call into
// a layer's public functions; "op" is the root's self time.
var spanNames = []string{
	"op", "cq.parse", "core.parse", "solver.prepare", "solver.cached", "solver.mutate",
	"plan.explain", "count.execute", "classify.classify", "approx.estimate", "jobs.submit", "jobs.wait",
}

// routeNames maps plan methods onto metric-name suffixes.
var routeNames = map[string]string{
	"exact/theorem-3.6":                  "theorem_3_6",
	"exact/theorem-3.7":                  "theorem_3_7",
	"exact/theorem-3.9":                  "theorem_3_9",
	"exact/theorem-4.6":                  "theorem_4_6",
	"exact/cylinder-inclusion-exclusion": "cylinder_ie",
	"brute-force":                        "brute_force",
}

var kernelNames = []string{"uint64", "uint128", "bigint"}

// perLayer fills the per-layer metrics of a traced run from its spans and
// notes, the untraced baseline a of the same passes, and the program's
// counters around the traced phase.
func perLayer(rep *report, w *workload, a *phase, tr *tracer, before, after server.Stats) {
	sum := tr.summarize()
	notes := tr.notes
	baseP50 := median(latenciesMS(a.outs))
	rootP50 := median(sum.rootMS)
	rep.add(true, "trace.root_p50_ms", rootP50, "ms", len(sum.rootMS), "traced operation, root span")
	if w.overHTTP {
		rep.add(false, "server.transport_ms", baseP50-rootP50, "ms", len(sum.rootMS), "untraced HTTP op p50 minus traced root p50 (HTTP, routing, JSON)")
		rep.add(true, "server.transport_share", (baseP50-rootP50)/baseP50, "ratio", len(sum.rootMS), "transport_ms over the untraced op p50")
	} else {
		rep.add(true, "server.transport_share", 0, "ratio", 0, "no HTTP on this workload")
	}
	if !w.overHTTP {
		rep.add(true, "trace.overhead_frac", rootP50/baseP50-1, "ratio", len(sum.rootMS), "traced vs untraced p50, identical call sequence")
	} else {
		rep.add(true, "trace.overhead_frac", 0, "ratio", 0, "defined on the library workload only (HTTP workloads trace a different call path)")
	}
	rep.add(false, "trace.spans_per_op", float64(sum.spans)/float64(max(1, sum.ops)), "count", sum.ops, "")
	rep.add(true, "trace.unreconciled_ops", float64(sum.unreconciled), "count", sum.ops,
		fmt.Sprintf("ops whose child durations plus root self time miss the root by more than %.1f%%; worst error %.2g", 100*reconcileTol, sum.maxErr))

	for _, name := range spanNames {
		st := sum.byName[name]
		share := 0.0
		n := 0
		if st != nil && sum.rootTotal > 0 {
			share = float64(st.self) / float64(sum.rootTotal)
			n = len(st.durations)
		}
		rep.add(true, "self_share."+name, share, "ratio", n, "self time over summed root time")
	}
	// Per-layer timings, each the p50 of its span; text report only, since
	// a workload whose path skips a layer has no sample of it.
	timing := func(metric, spanName, unit string, scale float64) {
		st := sum.byName[spanName]
		if st == nil {
			rep.add(false, metric, 0, unit, 0, "not on this workload's path")
			return
		}
		rep.add(false, metric, median(st.durations)*scale, unit, len(st.durations), "p50 of the span")
	}
	timing("cq.parse_us", "cq.parse", "us", 1e3)
	timing("core.parse_ms", "core.parse", "ms", 1)
	timing("solver.prepare_ms", "solver.prepare", "ms", 1)
	timing("solver.cached_us", "solver.cached", "us", 1e3)
	timing("solver.mutate_us", "solver.mutate", "us", 1e3)
	timing("plan.explain_ms", "plan.explain", "ms", 1)
	timing("count.execute_ms", "count.execute", "ms", 1)
	timing("classify.classify_us", "classify.classify", "us", 1e3)
	timing("approx.estimate_ms", "approx.estimate", "ms", 1)
	timing("jobs.submit_ms", "jobs.submit", "ms", 1)
	timing("jobs.wait_ms", "jobs.wait", "ms", 1)

	mean := func(name string) (float64, int) {
		xs := notes[name]
		if len(xs) == 0 {
			return 0, 0
		}
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs)), len(xs)
	}
	total := func(name string) float64 {
		s := 0.0
		for _, x := range notes[name] {
			s += x
		}
		return s
	}
	v, n := mean("core.records")
	rep.add(true, "core.records_per_parse", v, "count", n, "records (facts and domain declarations) per ParseDatabaseString")
	rep.add(false, "core.records_parsed", total("core.records"), "count", n, "")

	hits := float64(after.CacheHits - before.CacheHits)
	misses := float64(after.CacheMisses - before.CacheMisses)
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	rep.add(true, "solver.cache_hit_ratio", ratio, "ratio", int(hits+misses), "Solver.Metrics hits over lookups")
	rep.add(true, "solver.computations", float64(after.Computations-before.Computations), "count", 0, "")
	rep.add(true, "solver.flight_shared", float64(after.FlightShared-before.FlightShared), "count", 0, "")
	rep.add(false, "solver.mutations", float64(after.Mutations-before.Mutations), "count", 0, "")
	rep.add(true, "solver.plans_patched", float64(after.PlansPatched-before.PlansPatched), "count", 0, "")
	rep.add(true, "solver.plans_invalidated", float64(after.PlansInvalidated-before.PlansInvalidated), "count", 0, "")
	rep.add(true, "solver.factors_reused", float64(after.FactorsReused-before.FactorsReused), "count", 0, "")

	routes := 0.0
	for m := range routeNames {
		routes += total("plan.route." + m)
	}
	routes += total("plan.route.other")
	for _, m := range slices.Sorted(maps.Keys(routeNames)) {
		share := 0.0
		if routes > 0 {
			share = total("plan.route."+m) / routes
		}
		rep.add(true, "plan.route_share."+routeNames[m], share, "ratio", int(routes), "share of explained plans by root method")
	}
	kernels := 0.0
	for _, k := range kernelNames {
		kernels += total("sweep.kernel." + k)
	}
	for _, k := range kernelNames {
		share := 0.0
		if kernels > 0 {
			share = total("sweep.kernel."+k) / kernels
		}
		rep.add(true, "sweep.kernel_share."+k, share, "ratio", int(kernels), "share of executed sweeps by kernel")
	}
	execS := total("count.exec_s")
	rate := func(work, secs float64) float64 {
		if secs <= 0 {
			return 0
		}
		return work / secs
	}
	rep.add(true, "count.space_per_s", rate(total("count.space"), execS), "1/s", len(notes["count.space"]), "counted space per second of Count after the plan is cached")
	swept := total("sweep.swept")
	rep.add(true, "sweep.swept_valuations", swept, "count", len(notes["sweep.swept"]), "Result.Stats.SweptValuations, summed")
	rep.add(true, "sweep.swept_per_s", rate(swept, total("sweep.exec_s")), "1/s", len(notes["sweep.swept"]), "swept valuations per second of sweeping Count")
	for _, p := range []string{"step", "match", "dedup"} {
		v, n := mean("sweep.phase_" + p)
		rep.add(false, "sweep.phase_"+p+"_est_ms", v, "ms", n, "the program's own phase timer, summed over workers: an estimate, never used as self time")
	}
	v, n = mean("approx.samples")
	rep.add(true, "approx.samples", v, "count", n, "Karp–Luby samples per estimate")

	rep.add(true, "jobs.rejected", float64(jobQueue(after).Rejected-jobQueue(before).Rejected), "count", 0, "429 refusals")
	v, n = mean("jobs.server_wall_ms")
	rep.add(false, "jobs.server_wall_ms", v, "ms", n, "finished_at − created_at, mean")
	v, n = mean("jobs.poll_lag_ms")
	rep.add(false, "jobs.poll_lag_ms", v, "ms", n, "client-observed done − finished_at, mean")
	ca, cb := clusterOf(after), clusterOf(before)
	rep.add(true, "dist.leases_completed", float64(ca.LeasesCompleted-cb.LeasesCompleted), "count", 0, "")
	rep.add(true, "dist.leases_reissued", float64(ca.LeasesReissued-cb.LeasesReissued), "count", 0, "")
	leasedWall := total("jobs.leased_wall_s")
	workerRate := 0.0
	if leasedWall > 0 && len(ca.Workers) > 0 {
		workerRate = (visited(ca) - visited(cb)) / leasedWall / float64(len(ca.Workers))
	}
	rep.add(true, "dist.worker_valuations_per_s", workerRate, "1/s", len(ca.Workers), "valuations each worker swept per second of leased-job wall time")
	leasedVs := 0.0
	if lr, lo := rate(total("jobs.leased_space"), leasedWall), rate(total("jobs.local_space"), total("jobs.local_wall_s")); lr > 0 && lo > 0 {
		leasedVs = lr / lo
	}
	rep.add(true, "dist.leased_vs_local", leasedVs, "ratio", len(notes["jobs.leased_space"]), "server-side valuations/s of leased jobs over local jobs")
}

func jobQueue(s server.Stats) server.JobQueueStats {
	if s.JobQueue == nil {
		return server.JobQueueStats{}
	}
	return *s.JobQueue
}

func clusterOf(s server.Stats) server.ClusterStats {
	if s.Cluster == nil {
		return server.ClusterStats{}
	}
	return *s.Cluster
}

// visited sums the workers' swept valuations.
func visited(m server.ClusterStats) float64 {
	s := 0.0
	for _, w := range m.Workers {
		if v, err := strconv.ParseFloat(w.Visited, 64); err == nil {
			s += v
		}
	}
	return s
}

// metricValue is one metric of the final JSON line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type reportMetric struct {
	gated bool
	name  string
	value float64
	unit  string
	n     int
	note  string
}

// report collects the human-readable report and the metrics of the JSON
// line. Per-layer metric names carry their layer as a dotted prefix,
// end-to-end names have none.
type report struct {
	workload string
	header   []string
	lines    []string
	e2e      []reportMetric
	layer    []reportMetric
}

func (r *report) env(b *bench, seconds, traceMode int) {
	commit := "unknown (not built from a git checkout)"
	if info, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+modified"
				}
			}
		}
		if rev != "" {
			commit = rev + dirty
		}
	}
	r.header = append(r.header,
		fmt.Sprintf("perfbench workload=%s seed=%d seconds=%d trace=%d", r.workload, b.seed, seconds, traceMode),
		fmt.Sprintf("env nproc=%d GOMAXPROCS=%d go=%s commit=%s", b.nproc, runtime.GOMAXPROCS(0), runtime.Version(), commit),
		"env job_store="+storePolicy,
	)
}

func (r *report) line(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// add records a metric; gated ones go into the JSON line.
func (r *report) add(gated bool, name string, value float64, unit string, n int, note string) {
	m := reportMetric{gated, name, value, unit, n, note}
	if strings.Contains(name, ".") {
		r.layer = append(r.layer, m)
		return
	}
	r.e2e = append(r.e2e, m)
}

func (r *report) print(w *os.File, traced bool) {
	for _, h := range r.header {
		fmt.Fprintln(w, "# "+h)
	}
	for _, l := range r.lines {
		fmt.Fprintln(w, "# "+l)
	}
	show := func(title string, ms []reportMetric) {
		fmt.Fprintln(w, "# "+title)
		for _, m := range ms {
			extra := ""
			if m.n > 0 {
				extra = fmt.Sprintf(" (n=%d)", m.n)
			}
			if m.note != "" {
				extra += "  " + m.note
			}
			fmt.Fprintf(w, "#   %-32s %14.6g %-6s%s\n", m.name, m.value, m.unit, extra)
		}
	}
	if traced {
		show("end-to-end (untraced half of the traced run)", r.e2e)
		show("per-layer (traced half)", r.layer)
	} else {
		show("end-to-end", r.e2e)
	}
}

// gated returns the metrics of the JSON line: the end-to-end ones of an
// untraced run, the per-layer ones of a traced run.
func (r *report) gated(traced bool) map[string]metricValue {
	src := r.e2e
	if traced {
		src = r.layer
	}
	out := make(map[string]metricValue)
	for _, m := range src {
		if !m.gated {
			continue
		}
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return out
}
