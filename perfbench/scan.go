package main

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ghost-installer/gia/internal/analysis"
	"github.com/ghost-installer/gia/internal/apk"
	"github.com/ghost-installer/gia/internal/corpus"
	"github.com/ghost-installer/gia/internal/memo"
	"github.com/ghost-installer/gia/internal/obs"
)

// scanCacheCapacity is the engine cache size gia-lint -cache=on and
// measure's shared engine ship with.
const scanCacheCapacity = 4096

// scanInput is the prebuilt corpus: ground truth and the APK artifacts.
type scanInput struct {
	apps  []corpus.AppMeta
	apks  []*apk.APK
	files int
	bytes int
}

// corpusApps flattens a generated corpus into the scanned population:
// Play apps, each pre-installed package once (first image wins) and the
// appstore crawl.
func corpusApps(c *corpus.Corpus) []corpus.AppMeta {
	apps := slices.Clone(c.PlayApps)
	seen := map[string]bool{}
	for _, img := range c.Images {
		for _, app := range img.Apps {
			if !seen[app.Package] {
				seen[app.Package] = true
				apps = append(apps, app)
			}
		}
	}
	return append(apps, c.StoreApps...)
}

// buildScanInput generates the corpus and builds every APK with nproc
// goroutines. buildNS, when non-nil, receives the time of each
// BuildAPKFor call.
func buildScanInput(cfg config, buildNS *samples) *scanInput {
	apps := corpusApps(corpus.Generate(corpus.Config{Seed: cfg.Seed, Scale: cfg.Scale}))
	in := &scanInput{apps: apps, apks: make([]*apk.APK, len(apps))}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(apps) {
					return
				}
				if buildNS == nil {
					in.apks[i] = corpus.BuildAPKFor(apps[i])
					continue
				}
				t0 := time.Now()
				in.apks[i] = corpus.BuildAPKFor(apps[i])
				buildNS.add(time.Since(t0))
			}
		}()
	}
	wg.Wait()
	for _, a := range in.apks {
		for name, data := range a.Files {
			if strings.HasPrefix(name, "smali/") {
				in.files++
				in.bytes += len(data)
			}
		}
	}
	return in
}

// setupReps is how many times a run sets up, reporting the median.
const setupReps = 3

// passResult is one ScanCorpus pass with its per-phase deltas.
type passResult struct {
	stats   analysis.ScanStats
	reports []analysis.Report
	elapsed time.Duration
	cache   map[string]int64
	rt      rtDelta
}

func (p passResult) rate() float64 { return float64(p.stats.APKs) / p.elapsed.Seconds() }

// scanPass runs one timed ScanCorpus pass over the prebuilt corpus. It
// collects garbage first, so every pass starts from the same heap state
// instead of inheriting the previous pass's collection cycle.
func scanPass(eng *analysis.Engine, reg *obs.Registry, in *scanInput, workers int) passResult {
	runtime.GC()
	before, rt0 := reg.Snapshot(), readRuntime()
	start := time.Now()
	reports, stats := eng.ScanCorpus(len(in.apks), workers, func(i int) *apk.APK { return in.apks[i] })
	elapsed := time.Since(start)
	return passResult{
		stats: stats, reports: reports, elapsed: elapsed,
		cache: counterDelta(before, reg.Snapshot()), rt: rt0.delta(readRuntime()),
	}
}

func newScanEngine(reg *obs.Registry) *analysis.Engine {
	return analysis.NewEngineWithOptions(analysis.EngineOptions{CacheCapacity: scanCacheCapacity, Registry: reg})
}

func runScan(cfg config) (*report, error) {
	rep := &report{Metrics: map[string]float64{}}
	var buildNS *samples
	reps := setupReps
	if cfg.Trace {
		buildNS, reps = &samples{}, 1
	}
	var setups []float64
	var in *scanInput
	rss := rssPeaks{}
	for r := 0; r < reps; r++ {
		in = nil
		runtime.GC()
		rss.begin()
		t0 := time.Now()
		in = buildScanInput(cfg, buildNS)
		setups = append(setups, time.Since(t0).Seconds())
		rss.end("setup")
	}
	rep.Metrics["setup_s"] = median(setups)
	fmt.Fprintf(cfg.Log, "scan: corpus seed=%d scale=%g apks=%d smali_files=%d smali_mb=%.1f cache_capacity=%d workers=%d setup_s=%v\n",
		cfg.Seed, cfg.Scale, len(in.apks), in.files, float64(in.bytes)/(1<<20), scanCacheCapacity, cfg.Workers, setups)
	if len(in.apks) == 0 {
		return nil, fmt.Errorf("empty corpus")
	}

	if cfg.Trace {
		rep.Metrics["corpus.build_apk_us"] = buildNS.dist().mean() / 1e3
		return rep, scanTraced(cfg, in, rep)
	}

	// Per-APK latency: one caller scanning every third APK in turn, on a
	// fresh engine (census) and then again on the same engine (rescan).
	lat := [2]*samples{{}, {}}
	probe := newScanEngine(nil)
	for pass := 0; pass < 2; pass++ {
		runtime.GC()
		for i := 0; i < len(in.apks); i += 3 {
			t0 := time.Now()
			probe.ScanAPK(in.apks[i])
			lat[pass].add(time.Since(t0))
		}
	}
	probe = nil

	// Throughput: repeated census + rescan pairs on a fresh engine each,
	// until the window is spent (at least three pairs).
	deadline := time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	var census, rescan []float64
	var first passResult
	for r := 0; r < 3 || time.Now().Before(deadline); r++ {
		reg := obs.NewRegistry()
		eng := newScanEngine(reg)
		rss.begin()
		c := scanPass(eng, reg, in, cfg.Workers)
		if r == 0 {
			checkScanReports(cfg, in, c, rep)
		}
		c.reports = nil
		s := scanPass(eng, reg, in, cfg.Workers)
		s.reports = nil
		rss.end("scan")
		checkPassesAgree(fmt.Sprintf("rep %d census vs rescan", r), c.stats, s.stats, rep)
		if r == 0 {
			first = c
		} else {
			checkPassesAgree(fmt.Sprintf("rep %d census vs rep 0 census", r), first.stats, c.stats, rep)
		}
		census = append(census, c.rate())
		rescan = append(rescan, s.rate())
		for _, p := range []passResult{c, s} {
			rep.Attempted += int64(p.stats.APKs)
			rep.Failed += int64(p.stats.Stats.ParseErrors)
			if sum := p.stats.CacheHits + p.stats.CacheMisses + p.stats.CacheDeduped; sum != p.stats.Stats.Files {
				rep.mismatch("cache outcomes %d != files scanned %d", sum, p.stats.Stats.Files)
			}
		}
		if r == 0 {
			fmt.Fprintf(cfg.Log, "scan: census raw hit=%.4f canon hit=%.4f | rescan raw hit=%.4f raw evictions=%d\n",
				hitRatio(c.cache, "analysis.cache.raw"), hitRatio(c.cache, "analysis.cache.canon"),
				hitRatio(s.cache, "analysis.cache.raw"), s.cache["analysis.cache.raw.evictions"])
		}
	}
	fmt.Fprintf(cfg.Log, "scan: census_apks_per_s reps=%d %v\n", len(census), census)
	fmt.Fprintf(cfg.Log, "scan: rescan_apks_per_s reps=%d %v\n", len(rescan), rescan)
	fmt.Fprintf(cfg.Log, "scan: peak RSS MB per phase (median of repetitions): %v\n", rss)
	rep.Metrics["peak_rss_mb"] = rss.value()
	rep.Metrics["a_per_s"] = upperQuartile(census)
	rep.Metrics["b_per_s"] = upperQuartile(rescan)
	rep.alias("census_apks_per_s", "APKs/s", "a_per_s")
	rep.alias("rescan_apks_per_s", "APKs/s", "b_per_s")
	for i, phase := range []string{"census", "rescan"} {
		d := lat[i].dist()
		label, q := d.tail()
		fmt.Fprintf(cfg.Log, "scan: %s per-APK latency %s=%.4fms n=%d\n", phase, label, d.q(q)/1e6, len(d))
		rep.latency(phase+"_apk_", "_ms", d)
	}
	return rep, nil
}

// hitRatio is hits ÷ (hits + misses + deduped) of one memo layer's deltas.
func hitRatio(delta map[string]int64, prefix string) float64 {
	h := delta[prefix+".hits"]
	return ratio(float64(h), float64(h+delta[prefix+".misses"]+delta[prefix+".deduped"]))
}

// checkPassesAgree is the census/rescan oracle: two scans of one corpus
// agree on per-rule counts, the score histogram and instruction counts.
func checkPassesAgree(what string, a, b analysis.ScanStats, rep *report) {
	switch {
	case a.APKs != b.APKs:
		rep.mismatch("%s: apks %d vs %d", what, a.APKs, b.APKs)
	case !maps.Equal(a.PerRule, b.PerRule):
		rep.mismatch("%s: per-rule counts %v vs %v", what, a.PerRule, b.PerRule)
	case a.ScoreHist != b.ScoreHist:
		rep.mismatch("%s: score histogram %v vs %v", what, a.ScoreHist, b.ScoreHist)
	case a.Stats.Instructions != b.Stats.Instructions:
		rep.mismatch("%s: instructions %d vs %d", what, a.Stats.Instructions, b.Stats.Instructions)
	case a.Findings != b.Findings:
		rep.mismatch("%s: findings %d vs %d", what, a.Findings, b.Findings)
	}
}

// referenceSample is how many APKs the uncached reference re-scans.
const referenceSample = 256

// checkScanReports holds a census pass to the uncached reference engine
// on a seeded sample, and the install-API verdict of every APK to the
// corpus ground truth.
func checkScanReports(cfg config, in *scanInput, p passResult, rep *report) {
	ref := analysis.NewEngine()
	rng := rand.New(rand.NewSource(cfg.Seed))
	for k := 0; k < min(referenceSample, len(in.apks)); k++ {
		i := rng.Intn(len(in.apks))
		want := ref.ScanAPK(in.apks[i])
		got := p.reports[i]
		rep.Attempted++
		if !reflect.DeepEqual(got.Findings, want.Findings) || got.Score != want.Score || got.Stats != want.Stats {
			rep.mismatch("apk %d (%s): cached findings differ from the uncached reference", i, in.apps[i].Package)
		}
	}
	wrong := 0
	for i, r := range p.reports {
		if hasInstallAPI(r) != in.apps[i].HasInstallAPI {
			wrong++
		}
	}
	if wrong > 0 {
		rep.mismatch("install-API classification differs from ground truth on %d of %d apks", wrong, len(p.reports))
	}
}

func hasInstallAPI(r analysis.Report) bool {
	for _, f := range r.Findings {
		if f.RuleID == analysis.RuleIDInstallAPI {
			return true
		}
	}
	return false
}

// scanTraced is the traced scan run: the untraced pair for per-phase
// deltas and the overhead base, the same pair with a span around every
// ScanAPK call, the per-stage probes and the cache ablation.
func scanTraced(cfg config, in *scanInput, rep *report) error {
	reg := obs.NewRegistry()
	eng := newScanEngine(reg)
	c := scanPass(eng, reg, in, cfg.Workers)
	c.reports = nil
	s := scanPass(eng, reg, in, cfg.Workers)
	s.reports = nil
	checkPassesAgree("census vs rescan", c.stats, s.stats, rep)
	rep.Attempted += int64(c.stats.APKs + s.stats.APKs)
	rep.Failed += int64(c.stats.Stats.ParseErrors + s.stats.Stats.ParseErrors)

	m := rep.Metrics
	m["memo.raw_hit_ratio"] = hitRatio(s.cache, "analysis.cache.raw")
	m["memo.raw_evictions"] = float64(s.cache["analysis.cache.raw.evictions"])
	m["memo.canon_hit_ratio"] = hitRatio(c.cache, "analysis.cache.canon")
	m["memo.summary_hit_ratio"] = hitRatio(c.cache, "analysis.cache.summaries")
	var deduped int64
	for _, p := range []passResult{c, s} {
		for k, v := range p.cache {
			if strings.HasPrefix(k, "analysis.cache.") && strings.HasSuffix(k, ".deduped") {
				deduped += v
			}
		}
	}
	m["memo.deduped"] = float64(deduped)
	m["go.alloc_bytes_per_op"] = float64(c.rt.AllocBytes) / float64(c.stats.APKs)
	m["go.gc_cpu_fraction"] = c.rt.GCCPUFraction
	m["go.gc_pause_p99_ms"] = c.rt.GCPauseP99Ms
	m["go.sched_latency_p99_ms"] = c.rt.SchedLatP99Ms
	m["go.heap_live_mb"] = c.rt.HeapLiveMB

	// The spans need a loop of the benchmark's own around ScanAPK; the
	// same loop without spans is the base of the tracing overhead.
	runtime.GC()
	uc := tracedScanPass(nil, "census", newScanEngine(nil), in, cfg.Workers)
	tr := newTracer()
	teng := newScanEngine(nil)
	runtime.GC()
	tc := tracedScanPass(tr, "census", teng, in, cfg.Workers)
	tracedScanPass(tr, "rescan", teng, in, cfg.Workers)
	d := tr.durations("analysis.scan_apk.census")
	m["analysis.apk_p50_us"] = d.q(0.5) / 1e3
	m["analysis.apk_p99_us"] = d.q(0.99) / 1e3
	var busy float64
	for _, v := range d {
		busy += float64(v)
	}
	m["analysis.worker_busy_ratio"] = busy / (float64(cfg.Workers) * float64(tc))
	m["trace_overhead_ratio"] = tc.Seconds() / uc.Seconds()
	fmt.Fprintf(cfg.Log, "scan: census pass ScanCorpus=%.3fs, the same census through a plain loop around ScanAPK=%.3fs, traced loop=%.3fs\n",
		c.elapsed.Seconds(), uc.Seconds(), tc.Seconds())

	scanStageProbes(cfg, in, m)

	// Cache ablation on a seeded subset: the uncached engine's time per
	// APK ÷ a fresh cached engine's, over the same APKs.
	sub := seededSubset(cfg.Seed, in, min(len(in.apks), 20_000))
	t0 := time.Now()
	analysis.NewEngine().ScanCorpus(len(sub.apks), cfg.Workers, func(i int) *apk.APK { return sub.apks[i] })
	off := time.Since(t0)
	t0 = time.Now()
	newScanEngine(nil).ScanCorpus(len(sub.apks), cfg.Workers, func(i int) *apk.APK { return sub.apks[i] })
	on := time.Since(t0)
	m["analysis.cache_off_ratio"] = off.Seconds() / on.Seconds()

	path := traceFile(cfg, "scan")
	fmt.Fprintf(cfg.Log, "scan: chrome trace %s\n", path)
	return tr.writeChrome(path)
}

// tracedScanPass scans the corpus with nproc goroutines calling ScanAPK
// directly, one span per call (id = APK index) under one span per pass
// (none with a nil tracer), and returns the pass's wall time.
func tracedScanPass(tr *tracer, phase string, eng *analysis.Engine, in *scanInput, workers int) time.Duration {
	t0 := time.Now()
	pass := tr.open("scan."+phase, -1, 0, root)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if int(i) >= len(in.apks) {
					return
				}
				sp := tr.open("analysis.scan_apk."+phase, i, lane, pass)
				eng.ScanAPK(in.apks[i])
				sp.close()
			}
		}(w + 1)
	}
	wg.Wait()
	pass.close()
	return time.Since(t0)
}

// seededSubset picks n APKs of the corpus with the run's seed.
func seededSubset(seed int64, in *scanInput, n int) *scanInput {
	rng := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
	idx := rng.Perm(len(in.apks))[:n]
	slices.Sort(idx)
	out := &scanInput{}
	for _, i := range idx {
		out.apps = append(out.apps, in.apps[i])
		out.apks = append(out.apks, in.apks[i])
	}
	return out
}

// stageSampleFiles is how many smali files the stage probes time.
const stageSampleFiles = 4000

// scanStageProbes times each analysis stage over a seeded smali sample
// from outside the engine: canonicalization, the memo content key,
// parsing, and class facts plus every default rule.
func scanStageProbes(cfg config, in *scanInput, m map[string]float64) {
	sub := seededSubset(cfg.Seed+1, in, min(len(in.apks), stageSampleFiles))
	type file struct {
		name string
		data []byte
	}
	var files []file
	var kb float64
	for _, a := range sub.apks {
		for name, data := range a.Files {
			if strings.HasPrefix(name, "smali/") {
				files = append(files, file{name, data})
				kb += float64(len(data)) / 1024
			}
		}
	}
	slices.SortFunc(files, func(a, b file) int { return strings.Compare(a.name, b.name) })

	canon := analysis.NewCanonicalizer(analysis.DefaultCanonMarkers())
	t0 := time.Now()
	for _, f := range files {
		if c, _, ok := canon.Canonicalize(f.data); ok {
			analysis.ReleaseCanon(c)
		}
	}
	m["analysis.canon_ns_per_kb"] = float64(time.Since(t0).Nanoseconds()) / kb

	t0 = time.Now()
	var sink memo.Key
	for _, f := range files {
		k := memo.KeyOfNamed(f.name, f.data)
		sink[0] ^= k[0]
	}
	m["memo.key_ns_per_kb"] = float64(time.Since(t0).Nanoseconds()) / kb

	classes := make([]*analysis.Class, 0, len(files))
	instrs := 0
	t0 = time.Now()
	for _, f := range files {
		cls, err := analysis.ParseBytes(f.name, f.data)
		if err != nil {
			continue
		}
		classes = append(classes, cls)
	}
	parse := time.Since(t0)
	for _, c := range classes {
		instrs += c.Instructions()
	}
	m["analysis.parse_ns_per_instr"] = ratio(float64(parse.Nanoseconds()), float64(instrs))

	rules := analysis.DefaultRules()
	t0 = time.Now()
	for _, c := range classes {
		ci := analysis.NewClassInfo(c)
		for _, r := range rules {
			r.Check(ci)
		}
	}
	m["analysis.rules_ns_per_instr"] = ratio(float64(time.Since(t0).Nanoseconds()), float64(instrs))
	_ = sink
}

// traceFile is where a traced run writes its Chrome trace.
func traceFile(cfg config, workload string) string {
	return fmt.Sprintf("%s/trace-%s-seed%d.json", cfg.Out, workload, cfg.Seed)
}
