// Command perfbench is the repository benchmark. It drives the public
// functions of the internal packages from outside, one workload per
// process:
//
//	scan     the §IV census: Engine.ScanCorpus over the whole generated
//	         corpus, a fresh-engine pass (census) then a second pass on the
//	         same engine (rescan);
//	explore  the chaos explorer: a seed-grid Sweep of the FileObserver
//	         hijack, then ExploreOrders over the wait-and-see choice trees;
//	fleet    gia-serve's HTTP layer over a Fleet of 1,000 devices, driven
//	         open-loop at a low and a high rate for latencies, then
//	         closed-loop over nproc connections with status and timeline
//	         reads (reads) and with the full mix (capacity).
//
// Usage:
//
//	perfbench --workload scan|explore|fleet [--seed N] [--seconds S] [--trace 0|1]
//
// Every run checks the workload's outputs against an oracle and prints
// each metric with its unit, then, as the last line, one JSON object with
// the keys correct, attempted, failed and metrics. An untraced run
// (--trace 0) reports the end-to-end metrics; a traced run (--trace 1)
// records spans at the benchmark's call sites, reports the per-layer
// metrics and writes the spans as a Chrome trace under --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported metric, its unit and which way is better.
type metricDef struct{ name, unit, better string }

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics of an untraced run. Every workload has two
// measured phases, a and b (scan: census, rescan; explore: sweep, orders;
// fleet: the read-only and the full-mix closed loop), each reported as
// units of work per second. The latencies of each phase (p50, p90, p99) are printed under
// the workload's own names but carry no bound: on a shared host they
// move with the CPU time the hypervisor steals, the fleet's by up to 2x
// between runs, where the throughputs move by a few percent.
var endToEnd = []metricDef{
	{"setup_s", "s", lower},
	{"peak_rss_mb", "MB", lower},
	{"a_per_s", "1/s", higher},
	{"b_per_s", "1/s", higher},
}

// perLayer are the metrics of a traced run. A workload that does not
// exercise a layer reports 0 for it.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"corpus.build_apk_us", "us", lower},
		{"analysis.apk_p50_us", "us", lower},
		{"analysis.apk_p99_us", "us", lower},
		{"analysis.worker_busy_ratio", "ratio", higher},
		{"analysis.canon_ns_per_kb", "ns/KB", lower},
		{"analysis.parse_ns_per_instr", "ns/instr", lower},
		{"analysis.rules_ns_per_instr", "ns/instr", lower},
		{"memo.key_ns_per_kb", "ns/KB", lower},
		{"memo.raw_hit_ratio", "ratio", higher},
		{"memo.raw_evictions", "count", lower},
		{"memo.canon_hit_ratio", "ratio", higher},
		{"memo.summary_hit_ratio", "ratio", higher},
		{"memo.deduped", "count", higher},
		{"chaos.run_p50_us", "us", lower},
		{"chaos.run_p99_us", "us", lower},
		{"chaos.overhead_us", "us", lower},
		{"chaos.por_prune_ratio", "ratio", higher},
		{"chaos.schedules_per_tree", "count", lower},
		{"chaos.max_branch", "count", lower},
		{"arena.acquire_us", "us", lower},
		{"arena.reset_mean_us", "us", lower},
		{"arena.hits", "count", higher},
		{"arena.misses", "count", lower},
		{"arena.reset_failures", "count", lower},
		{"arena.warm_hit_ratio", "ratio", higher},
		{"installer.scenario_us", "us", lower},
		{"attack.launch_us", "us", lower},
		{"sim.ait_us", "us", lower},
		{"sim.events_per_schedule", "count", lower},
		{"sim.ns_per_event", "ns", lower},
		{"par.busy_ratio", "ratio", higher},
		{"par.steals", "count", lower},
		{"par.sweep_scaling", "ratio", higher},
		{"par.orders_scaling", "ratio", higher},
	}
	for _, op := range serveOps {
		splits := []string{"http_us", "service_us"}
		if op == "install" || op == "attack" {
			// Only transactions report their shard execution time, so
			// only they split the Service call into queue wait and exec.
			splits = append(splits, "queue_wait_us", "exec_us")
		}
		for _, m := range splits {
			defs = append(defs,
				metricDef{"serve." + op + "." + m + "_p50", "us", lower},
				metricDef{"serve." + op + "." + m + "_p99", "us", lower})
		}
	}
	return append(defs, []metricDef{
		{"serve.shard_busy_ratio", "ratio", lower},
		{"obs.scrape_ms", "ms", lower},
		{"loadgen.lag_p99_ms", "ms", lower},
		{"loadgen.max_ok_rate_ops_s", "ops/s", higher},
		{"go.alloc_objects_per_schedule", "count", lower},
		{"go.alloc_bytes_per_op", "B", lower},
		{"go.gc_cpu_fraction", "ratio", lower},
		{"go.gc_pause_p99_ms", "ms", lower},
		{"go.sched_latency_p99_ms", "ms", lower},
		{"go.heap_live_mb", "MB", lower},
		// Ablations: the phase's time with one option flipped ÷ the
		// default's (traced ÷ untraced for the tracing overhead).
		{"analysis.cache_off_ratio", "ratio", higher},
		{"chaos.por_off_ratio", "ratio", higher},
		{"arena.off_ratio", "ratio", higher},
		{"chaos.recorder_on_ratio", "ratio", lower},
		{"serve.recorder_off_ratio", "ratio", higher},
		{"trace_overhead_ratio", "ratio", lower},
	}...)
}

// serveOps are the fleet operations timed per op in the traced run.
var serveOps = []string{"install", "attack", "create", "delete", "get"}

// config is one run's settings.
type config struct {
	Seed    int64
	Seconds float64
	Trace   bool
	Workers int    // nproc: scanner, explorer and client concurrency
	Out     string // directory for the Chrome trace
	// Scale shrinks every workload for the benchmark's own tests; 1 is the
	// benchmark proper.
	Scale float64
	// Log receives the human-readable report.
	Log io.Writer
	// wrapHandler, when set, wraps the fleet's HTTP handler; the
	// benchmark's tests use it to corrupt responses.
	wrapHandler func(http.Handler) http.Handler
}

// report is what a workload hands back: the oracle verdict, the operation
// counts and the metrics of its mode.
type report struct {
	Attempted int64
	Failed    int64
	// Mismatches are oracle failures; any one makes the run incorrect.
	Mismatches []string
	Metrics    map[string]float64
	// Named are the workload's metrics under its own names (such as
	// census_apks_per_s for the scan's a_per_s) and its latencies, printed
	// for the reader.
	Named []namedValue
}

type namedValue struct {
	name, unit string
	value      float64
}

func (r *report) mismatch(format string, args ...any) {
	r.Mismatches = append(r.Mismatches, fmt.Sprintf(format, args...))
}

// alias records the generic metric generic under the workload's own name
// and unit.
func (r *report) alias(name, unit, generic string) {
	r.Named = append(r.Named, namedValue{name, unit, r.Metrics[generic]})
}

// latency records a latency distribution's p50, p90 and p99 in
// milliseconds as prefix+"p50"+suffix and so on.
func (r *report) latency(prefix, suffix string, d dist) {
	for _, p := range []struct {
		label string
		q     float64
	}{{"p50", 0.5}, {"p90", 0.9}, {"p99", 0.99}} {
		r.Named = append(r.Named, namedValue{prefix + p.label + suffix, "ms", d.q(p.q) / 1e6})
	}
}

// result is the last line of the run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

var workloads = map[string]func(config) (*report, error){
	"scan":    runScan,
	"explore": runExplore,
	"fleet":   runFleet,
}

func main() {
	workload := flag.String("workload", "", "workload to run: scan, explore or fleet")
	seed := flag.Int64("seed", 2017, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the Chrome trace of a traced run")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload scan|explore|fleet [--seed N] [--seconds S] [--trace 0|1]")
		os.Exit(2)
	}
	cfg := config{
		Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Workers: runtime.NumCPU(), Out: *out, Scale: 1, Log: os.Stdout,
	}
	res, err := execute(*workload, run, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// execute stamps the host and inputs, runs the workload and assembles the
// result line from the metrics of the run's mode.
func execute(name string, run func(config) (*report, error), cfg config) (result, error) {
	fmt.Fprintf(cfg.Log, "host: num_cpu=%d GOMAXPROCS=%d cpu=%q go=%s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(cfg.Log, "input: workload=%s seed=%d seconds=%g trace=%v workers=%d scale=%g\n",
		name, cfg.Seed, cfg.Seconds, cfg.Trace, cfg.Workers, cfg.Scale)
	start := time.Now()
	busy0, steal0 := cpuTimes()
	rep, err := run(cfg)
	busy1, steal1 := cpuTimes()
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", name, err)
	}
	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
	}
	res := result{
		Correct:   len(rep.Mismatches) == 0,
		Attempted: rep.Attempted,
		Failed:    rep.Failed + int64(len(rep.Mismatches)),
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: rep.Metrics[d.name], Unit: d.unit}
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(cfg.Log, "metric %-40s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, n := range rep.Named {
		fmt.Fprintf(cfg.Log, "workload metric %-32s %16.6g %s\n", n.name, n.value, n.unit)
	}
	fmt.Fprintf(cfg.Log, "failed_ratio = %.6g ratio (%d failed of %d attempted)\n",
		ratio(float64(res.Failed), float64(max(res.Attempted, 1))), res.Failed, res.Attempted)
	for _, m := range rep.Mismatches {
		fmt.Fprintln(cfg.Log, "oracle MISMATCH:", m)
	}
	verdict := "ok"
	if !res.Correct {
		verdict = "FAILED"
	}
	fmt.Fprintf(cfg.Log, "oracle: %s; run took %.1fs; host steal %.1f%% of CPU time\n",
		verdict, time.Since(start).Seconds(), 100*ratio(steal1-steal0, busy1-busy0+steal1-steal0))
	return res, nil
}
