package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/ghost-installer/gia/internal/arena"
	"github.com/ghost-installer/gia/internal/attack"
	"github.com/ghost-installer/gia/internal/chaos"
	"github.com/ghost-installer/gia/internal/device"
	"github.com/ghost-installer/gia/internal/experiment"
	"github.com/ghost-installer/gia/internal/installer"
	"github.com/ghost-installer/gia/internal/obs"
	"github.com/ghost-installer/gia/internal/par"
	"github.com/ghost-installer/gia/internal/sim"
)

// Explore workload sizes. A sweep repetition is one Explorer.Sweep call
// over the same consecutive seeds; an orders repetition exhausts the same
// set of choice trees, one ExploreOrders call each.
const (
	sweepChunk       = 10000
	ordersTrees      = 16
	ordersPayloadKiB = 900
	ordersQuantum    = 10 * time.Millisecond
	ordersMaxScheds  = 2000
	// setupArenas is how many worker arenas one explore set-up boots, and
	// exploreSetupReps how many set-ups a run times.
	setupArenas      = 128
	exploreSetupReps = 11
)

// runAcc accumulates what the benchmark's RunFunc observes across one
// explorer call.
type runAcc struct {
	endSum atomic.Int64 // sum over schedules of the AIT's virtual end time
	runs   atomic.Int64
	tr     *tracer
	lanes  map[*arena.Arena]int // trace lane of each worker arena
	phase  string               // span name prefix
	simMet sim.Metrics          // zero: scheduler left uninstrumented
}

// hijackRun is the benchmark's own RunFunc: one complete AIT under a
// TOCTOU attack per schedule, asserting the hijack lands. It makes the
// same calls as experiment.HijackRunFunc (device from the worker arena, or
// a fresh boot without one; NewScenarioPayloadOn; Instrument; NewTOCTOU;
// Launch; RunAIT), timing each from outside and summing the virtual end
// times the worker-count oracle compares. The timed sweep runs the shipped
// HijackRunFunc instead; hijackRun serves the traced spans, the oracle and
// the orders trees, whose 900 KiB payload the shipped RunFunc cannot set.
func hijackRun(strategy attack.Strategy, payload []byte, acc *runAcc) chaos.RunFunc {
	prof := installer.Amazon()
	cfg := attack.ConfigForStore(prof, strategy)
	if payload == nil {
		payload = []byte("genuine") // HijackRunFunc's payload
	}
	return func(r *chaos.Run) error {
		id := acc.runs.Add(1)
		ar, _ := r.State().(*arena.Arena)
		lane := acc.lanes[ar]
		sp := acc.tr.open(acc.phase+"chaos.schedule", id, lane, root)
		defer sp.close()

		acq := acc.tr.open(acc.phase+"arena.acquire", id, lane, sp)
		var dev *device.Device
		var err error
		if ar != nil {
			dev, err = ar.Acquire(r.Seed())
		} else {
			dev, err = device.Boot(experiment.ScenarioDeviceProfile(r.Seed()))
		}
		acq.close()
		if err != nil {
			return fmt.Errorf("device: %w", err)
		}
		if ar != nil {
			defer ar.Release(dev)
		}
		if acc.simMet.Dispatched != nil {
			dev.Sched.Instrument(acc.simMet)
			defer dev.Sched.Instrument(sim.Metrics{})
		}

		scen := acc.tr.open(acc.phase+"installer.scenario", id, lane, sp)
		s, err := experiment.NewScenarioPayloadOn(dev, prof, payload)
		scen.close()
		if err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
		s.Instrument(r)
		if k := r.Track(); k != nil {
			s.Store.Instrument(nil, k)
		}
		launch := acc.tr.open(acc.phase+"attack.launch", id, lane, sp)
		atk := attack.NewTOCTOU(s.Mal, cfg, s.Target)
		err = atk.Launch()
		launch.close()
		if err != nil {
			return fmt.Errorf("launch: %w", err)
		}
		ait := acc.tr.open(acc.phase+"sim.ait", id, lane, sp)
		res := s.RunAIT()
		ait.close()
		atk.Stop()
		if n := len(res.Trace); n > 0 {
			acc.endSum.Add(int64(res.Trace[n-1].At))
		}
		if !res.Hijacked {
			return fmt.Errorf("hijack missed (attempts=%d, err=%v)", res.Attempts, res.Err)
		}
		return nil
	}
}

// exploreSetup is the explorer's set-up: it builds setupArenas worker
// arenas with the shipped experiment.ArenaWorkerState factory and boots
// each one's device, so no timed schedule pays a boot.
func exploreSetup(reg *obs.Registry) ([]*arena.Arena, error) {
	factory := experiment.ArenaWorkerState(reg)
	arenas := make([]*arena.Arena, setupArenas)
	for k := range arenas {
		a := factory().(*arena.Arena)
		d, err := a.Acquire(int64(k))
		if err != nil {
			return nil, fmt.Errorf("boot worker arena %d: %w", k, err)
		}
		a.Release(d)
		arenas[k] = a
	}
	return arenas, nil
}

// explorer builds an explorer whose workers take the pre-booted arenas
// in order (nil arenas: every schedule boots a fresh device).
func explorer(workers int, arenas []*arena.Arena) *chaos.Explorer {
	ex := &chaos.Explorer{Workers: workers}
	if arenas != nil {
		var next atomic.Int64
		ex.WorkerState = func() any { return arenas[int(next.Add(1)-1)%len(arenas)] }
	}
	return ex
}

// laneMap gives each worker arena its own trace lane.
func laneMap(arenas []*arena.Arena) map[*arena.Arena]int {
	m := make(map[*arena.Arena]int, len(arenas))
	for k, a := range arenas {
		m[a] = k + 1
	}
	return m
}

// sweepSeeds is sweep chunk k of the run's seed grid.
func sweepSeeds(cfg config, k, n int) []int64 {
	seeds := make([]int64, n)
	base := cfg.Seed*10_000_000 + int64(k*n)
	for i := range seeds {
		seeds[i] = base + int64(i)
	}
	return seeds
}

// treeSeed is the base seed of orders tree k: ExplorationStudy row 1's
// tree for study seed k+1, the same for every run seed. A tree holds 64
// or 128 schedules depending on its seed, so a seed-drawn set of trees
// would make trees per second measure the draw as much as the explorer.
func treeSeed(k int) int64 { return int64(k) + 1 }

// chunkOut is one explorer call's outcome. ends reports whether endSum
// was observed (only the benchmark's own RunFunc sums the end times).
type chunkOut struct {
	res     *chaos.Result
	endSum  int64
	ends    bool
	elapsed time.Duration
}

// shippedSweep is the RunFunc gia-chaos sweeps with.
var shippedSweep = experiment.HijackRunFunc(installer.Amazon(), attack.StrategyFileObserver)

// sweepOnce runs one sweep chunk with the shipped RunFunc, or with the
// benchmark's own when acc is non-nil.
func sweepOnce(ex *chaos.Explorer, seeds []int64, acc *runAcc, lat *samples) chunkOut {
	ex.Plan, ex.MaxSchedules = nil, 0
	run := shippedSweep
	if acc != nil {
		acc.endSum.Store(0)
		run = hijackRun(attack.StrategyFileObserver, nil, acc)
	}
	t0 := time.Now()
	res := ex.Sweep(seeds, nil, timedRun(run, lat))
	out := chunkOut{res: res, elapsed: time.Since(t0)}
	if acc != nil {
		out.endSum, out.ends = acc.endSum.Load(), true
	}
	return out
}

// timedRun adds each call's wall time to lat (run itself when lat is nil).
func timedRun(run chaos.RunFunc, lat *samples) chaos.RunFunc {
	if lat == nil {
		return run
	}
	return func(r *chaos.Run) error {
		t0 := time.Now()
		err := run(r)
		lat.add(time.Since(t0))
		return err
	}
}

// ordersPlan quantizes every deadline onto a 10ms grid, so the
// wait-and-see poller ties with the download's chunk writes.
func ordersPlan() *chaos.FaultPlan { return chaos.Quantize(ordersQuantum, 0, 0) }

var ordersPayload = bytes.Repeat([]byte("x"), ordersPayloadKiB<<10)

// ordersOnce exhausts one choice tree.
func ordersOnce(ex *chaos.Explorer, seed int64, acc *runAcc, lat *samples) chunkOut {
	ex.Plan, ex.MaxSchedules = ordersPlan(), ordersMaxScheds
	acc.endSum.Store(0)
	t0 := time.Now()
	res := ex.ExploreOrders(chaos.Schedule{Seed: seed}, timedRun(hijackRun(attack.StrategyWaitAndSee, ordersPayload, acc), lat))
	return chunkOut{res: res, endSum: acc.endSum.Load(), ends: true, elapsed: time.Since(t0)}
}

// checkChunk is the per-call oracle: no violation, no truncation.
func checkChunk(what string, c chunkOut, rep *report) {
	rep.Attempted += int64(c.res.Explored)
	rep.Failed += int64(c.res.Violations)
	if c.res.Violations > 0 {
		rep.mismatch("%s: %d violations (first %s: %v)", what, c.res.Violations, c.res.First.Schedule.Token(), c.res.First.Err)
	}
	if c.res.Truncated {
		rep.mismatch("%s: truncated at %d schedules", what, c.res.Explored)
	}
}

// checkSameStats is the worker-count oracle: a parallel run must leave
// every simulated statistic of the serial one unchanged.
func checkSameStats(what string, serial, parallel chunkOut, rep *report) {
	a, b := serial.res, parallel.res
	ends := serial.ends && parallel.ends && serial.endSum != parallel.endSum
	if a.Explored != b.Explored || a.PORSkipped != b.PORSkipped || a.MaxBranch != b.MaxBranch || ends {
		rep.mismatch("%s: 1 worker explored=%d por_skipped=%d max_branch=%d end_sum=%d, parallel %d/%d/%d/%d",
			what, a.Explored, a.PORSkipped, a.MaxBranch, serial.endSum, b.Explored, b.PORSkipped, b.MaxBranch, parallel.endSum)
	}
}

// sweepShare is the part of the window the sweep phase takes; orders
// takes the rest.
const sweepShare = 0.3

func runExplore(cfg config) (*report, error) {
	rep := &report{Metrics: map[string]float64{}}
	reg := obs.NewRegistry()
	sweepN := max(8, int(sweepChunk*cfg.Scale))
	nTrees := max(2, int(ordersTrees*cfg.Scale))

	// A set-up boots a fixed batch of worker arenas; the first also fills
	// the process-wide fixture caches. The run reports the median.
	reps := exploreSetupReps
	if cfg.Trace {
		reps = 1
	}
	var setups []float64
	var arenas []*arena.Arena
	rss := rssPeaks{}
	for r := 0; r < reps; r++ {
		arenas = nil
		runtime.GC()
		rss.begin()
		t0 := time.Now()
		var err error
		if arenas, err = exploreSetup(reg); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		rss.end("setup")
	}
	rep.Metrics["setup_s"] = median(setups)
	fmt.Fprintf(cfg.Log, "explore: seed=%d workers=%d setup_arenas=%d sweep_chunk=%d orders trees=%d payload=%dKiB quantum=%s max_schedules=%d setup_s=%.6f\n",
		cfg.Seed, cfg.Workers, setupArenas, sweepN, nTrees, ordersPayloadKiB, ordersQuantum, ordersMaxScheds, setups)
	if cfg.Trace {
		return rep, exploreTraced(cfg, reg, arenas, sweepN, nTrees, rep)
	}

	window := time.Duration(cfg.Seconds * float64(time.Second))
	ex := explorer(cfg.Workers, arenas)
	seeds := sweepSeeds(cfg, 0, sweepN)

	// Phase a: the same sweep chunk, with the shipped RunFunc, until the
	// sweep's share of the window is spent.
	lat := &samples{}
	var sweepRates []float64
	var sweeps []chunkOut
	runtime.GC()
	deadline := time.Now().Add(time.Duration(sweepShare * float64(window)))
	for k := 0; k < 3 || time.Now().Before(deadline); k++ {
		rss.begin()
		c := sweepOnce(ex, seeds, nil, lat)
		rss.end("sweep")
		checkChunk(fmt.Sprintf("sweep rep %d", k), c, rep)
		sweeps = append(sweeps, c)
		sweepRates = append(sweepRates, float64(c.res.Explored)/c.elapsed.Seconds())
	}

	// Phase b: the same set of trees until the window is spent. Trees per
	// second is the set's size over the sum of each tree's lower-quartile
	// time across repetitions (the counterpart of the upper-quartile rate
	// the other phases report), so a burst of contention in one
	// repetition slows only the trees it overlapped.
	olat := &samples{}
	var sets [][]chunkOut
	var setRates []float64
	treeTimes := make([][]float64, nTrees)
	runtime.GC()
	deadline = time.Now().Add(window - time.Duration(sweepShare*float64(window)))
	for k := 0; k < 3 || time.Now().Before(deadline); k++ {
		set, elapsed := ordersSet(ex, nTrees, &runAcc{}, olat, rss)
		for i, c := range set {
			checkChunk(fmt.Sprintf("orders rep %d tree %d", k, i), c, rep)
			treeTimes[i] = append(treeTimes[i], c.elapsed.Seconds())
		}
		sets = append(sets, set)
		setRates = append(setRates, float64(nTrees)/elapsed.Seconds())
	}
	var treeTime float64
	for _, ts := range treeTimes {
		treeTime += lowerQuartile(ts)
	}

	// Oracles: every repetition repeats the first, and the sweep chunk and
	// the first two trees give the same statistics on one worker.
	for k := 1; k < len(sweeps); k++ {
		checkSameStats(fmt.Sprintf("sweep rep %d vs rep 0", k), sweeps[0], sweeps[k], rep)
	}
	for k := 1; k < len(sets); k++ {
		for i := range sets[k] {
			checkSameStats(fmt.Sprintf("orders rep %d vs rep 0, tree %d", k, i), sets[0][i], sets[k][i], rep)
		}
	}
	serial := explorer(1, arenas[:1])
	serialSweep := sweepOnce(serial, seeds, &runAcc{}, nil)
	checkSameStats("sweep on 1 worker vs shipped RunFunc", serialSweep, sweeps[0], rep)
	checkSameStats("sweep on 1 vs nproc workers", serialSweep, sweepOnce(explorer(cfg.Workers, arenas), seeds, &runAcc{}, nil), rep)
	for k := 0; k < 2; k++ {
		checkSameStats(fmt.Sprintf("orders tree %d on 1 vs nproc workers", k), ordersOnce(serial, treeSeed(k), &runAcc{}, nil), sets[0][k], rep)
	}

	var scheds, skipped int
	for _, t := range sets[0] {
		scheds += t.res.Explored
		skipped += t.res.PORSkipped
	}
	fmt.Fprintf(cfg.Log, "explore: sweep_schedules_per_s reps=%d %.1f\n", len(sweepRates), sweepRates)
	fmt.Fprintf(cfg.Log, "explore: orders set of %d trees: schedules=%d por_skipped=%d; trees/s per repetition=%.3f; orders_trees_per_s=%.3f\n",
		nTrees, scheds, skipped, setRates, float64(nTrees)/treeTime)
	fmt.Fprintf(cfg.Log, "explore: peak RSS MB per phase (median of repetitions): %v\n", rss)
	rep.Metrics["peak_rss_mb"] = rss.value()
	rep.Metrics["a_per_s"] = upperQuartile(sweepRates)
	rep.Metrics["b_per_s"] = float64(nTrees) / treeTime
	rep.alias("sweep_schedules_per_s", "schedules/s", "a_per_s")
	rep.alias("orders_trees_per_s", "trees/s", "b_per_s")
	for i, l := range []*samples{lat, olat} {
		d := l.dist()
		phase := []string{"sweep", "orders"}[i]
		label, q := d.tail()
		fmt.Fprintf(cfg.Log, "explore: %s per-schedule latency %s=%.4fms n=%d\n", phase, label, d.q(q)/1e6, len(d))
		rep.latency(phase+"_schedule_", "_ms", d)
	}
	return rep, nil
}

// tracedChunks sizes the sweep phase of the traced run; every variant
// runs the same chunks and trees, so their times compare.
const tracedChunks = 2

// sweepSet runs sweep chunks 0..n-1 (with the shipped RunFunc when acc is
// nil) and returns their outcomes and total time.
func sweepSet(cfg config, ex *chaos.Explorer, n, size int, acc *runAcc) ([]chunkOut, time.Duration) {
	var outs []chunkOut
	var total time.Duration
	for k := 0; k < n; k++ {
		c := sweepOnce(ex, sweepSeeds(cfg, k, size), acc, nil)
		outs = append(outs, c)
		total += c.elapsed
	}
	return outs, total
}

// ordersSet exhausts trees 0..n-1 and returns their outcomes and total
// time; a non-nil rss records each tree's peak.
func ordersSet(ex *chaos.Explorer, n int, acc *runAcc, lat *samples, rss rssPeaks) ([]chunkOut, time.Duration) {
	var outs []chunkOut
	var total time.Duration
	for k := 0; k < n; k++ {
		rss.begin()
		c := ordersOnce(ex, treeSeed(k), acc, lat)
		rss.end("orders")
		outs = append(outs, c)
		total += c.elapsed
	}
	return outs, total
}

// checkSets holds every outcome of a variant to the default's.
func checkSets(what string, got, want []chunkOut, rep *report) {
	for k := range got {
		checkChunk(fmt.Sprintf("%s %d", what, k), got[k], rep)
		checkSameStats(fmt.Sprintf("%s %d", what, k), got[k], want[k], rep)
	}
}

// exploreTraced is the traced explore run: the default sweep and orders
// untraced (per-phase deltas, the base of every ratio), again with spans
// and pool and scheduler counters, on one worker, and with one option
// flipped per ablation.
func exploreTraced(cfg config, reg *obs.Registry, arenas []*arena.Arena, sweepN, trees int, rep *report) error {
	m := rep.Metrics
	ex := explorer(cfg.Workers, arenas)
	chunks := tracedChunks
	sweepSet(cfg, ex, 1, sweepN, nil) // warm-up

	before, rt0 := reg.Snapshot(), readRuntime()
	base, baseSweep := sweepSet(cfg, ex, chunks, sweepN, nil)
	after, rt := reg.Snapshot(), rt0.delta(readRuntime())
	for k, c := range base {
		checkChunk(fmt.Sprintf("sweep %d", k), c, rep)
	}
	delta := counterDelta(before, after)
	hits, misses := float64(delta["arena.hits"]), float64(delta["arena.misses"])
	m["arena.hits"], m["arena.misses"] = hits, misses
	m["arena.reset_failures"] = float64(delta["arena.reset_failures"])
	m["arena.warm_hit_ratio"] = ratio(hits, hits+misses)
	if n, sum := histDelta(before, after, "arena.reset_ns"); n > 0 {
		m["arena.reset_mean_us"] = float64(sum) / float64(n) / 1e3
	}
	n := float64(chunks * sweepN)
	m["go.alloc_objects_per_schedule"] = float64(rt.AllocObjects) / n
	m["go.alloc_bytes_per_op"] = float64(rt.AllocBytes) / n
	m["go.gc_cpu_fraction"] = rt.GCCPUFraction
	m["go.gc_pause_p99_ms"] = rt.GCPauseP99Ms
	m["go.sched_latency_p99_ms"] = rt.SchedLatP99Ms
	m["go.heap_live_mb"] = rt.HeapLiveMB
	baseTrees, baseOrders := ordersSet(ex, trees, &runAcc{}, nil, nil)
	for k, c := range baseTrees {
		checkChunk(fmt.Sprintf("orders %d", k), c, rep)
	}

	// Traced: spans at every call site, scheduler and pool counters.
	tr := newTracer()
	preg := obs.NewRegistry()
	par.SetInstrumentation(&par.Instrumentation{
		Tasks: preg.Counter("par.tasks"), Steals: preg.Counter("par.steals"),
		Queued: preg.Gauge("par.queued"), Busy: preg.Gauge("par.busy"),
		BusyNS: preg.Counter("par.busy_ns"), JobNS: preg.Histogram("par.job_ns", obs.DurationBuckets()),
		Clock: obs.Stopwatch(),
	})
	simMet := sim.Metrics{Scheduled: preg.Counter("sim.scheduled"), Dispatched: preg.Counter("sim.dispatched"), Cancelled: preg.Counter("sim.cancelled")}
	lanes := laneMap(arenas)
	traced, tracedSweep := sweepSet(cfg, ex, chunks, sweepN, &runAcc{tr: tr, lanes: lanes, phase: "sweep/", simMet: simMet})
	sweepCounts := counterDelta(obs.Snapshot{}, preg.Snapshot())
	checkSets("traced sweep", traced, base, rep)
	mid := preg.Snapshot()
	tracedOrdersOut, _ := ordersSet(ex, trees, &runAcc{tr: tr, lanes: lanes, phase: "orders/"}, nil, nil)
	ordersCounts := counterDelta(mid, preg.Snapshot())
	par.SetInstrumentation(nil)
	checkSets("traced orders", tracedOrdersOut, baseTrees, rep)

	run := tr.durations("sweep/chaos.schedule")
	m["chaos.run_p50_us"] = run.q(0.5) / 1e3
	m["chaos.run_p99_us"] = run.q(0.99) / 1e3
	perSchedule := float64(tracedSweep.Nanoseconds()) * float64(cfg.Workers) / n
	m["chaos.overhead_us"] = (perSchedule - run.mean()) / 1e3
	var skipped, explored, maxBranch int
	for _, c := range tracedOrdersOut {
		skipped += c.res.PORSkipped
		explored += c.res.Explored
		maxBranch = max(maxBranch, c.res.MaxBranch)
	}
	m["chaos.por_prune_ratio"] = ratio(float64(skipped), float64(skipped+explored))
	m["chaos.schedules_per_tree"] = float64(explored) / float64(trees)
	m["chaos.max_branch"] = float64(maxBranch)
	m["arena.acquire_us"] = tr.durations("sweep/arena.acquire").mean() / 1e3
	m["installer.scenario_us"] = tr.durations("sweep/installer.scenario").mean() / 1e3
	m["attack.launch_us"] = tr.durations("sweep/attack.launch").mean() / 1e3
	ait := tr.durations("sweep/sim.ait")
	m["sim.ait_us"] = ait.mean() / 1e3
	events := float64(sweepCounts["sim.dispatched"])
	m["sim.events_per_schedule"] = events / n
	m["sim.ns_per_event"] = ratio(ait.mean()*n, events)
	m["par.busy_ratio"] = float64(sweepCounts["par.busy_ns"]) / (float64(cfg.Workers) * float64(tracedSweep.Nanoseconds()))
	m["par.steals"] = float64(ordersCounts["par.steals"])
	m["trace_overhead_ratio"] = tracedSweep.Seconds() / baseSweep.Seconds()

	// Scaling: rate at nproc workers ÷ rate at one worker, same work.
	serial := explorer(1, arenas[:1])
	s1, serialSweep := sweepSet(cfg, serial, chunks, sweepN, nil)
	checkSets("sweep on 1 worker", s1, base, rep)
	m["par.sweep_scaling"] = serialSweep.Seconds() / baseSweep.Seconds()
	o1, serialOrders := ordersSet(serial, trees, &runAcc{}, nil, nil)
	checkSets("orders on 1 worker", o1, baseTrees, rep)
	m["par.orders_scaling"] = serialOrders.Seconds() / baseOrders.Seconds()

	// Ablations: the phase's time with one option flipped ÷ the default's.
	noPOR := explorer(cfg.Workers, arenas)
	noPOR.DisablePOR = true
	offTrees, porOff := ordersSet(noPOR, trees, &runAcc{}, nil, nil)
	for k, c := range offTrees {
		checkChunk(fmt.Sprintf("orders without POR %d", k), c, rep)
	}
	m["chaos.por_off_ratio"] = porOff.Seconds() / baseOrders.Seconds()

	noArena, noArenaSweep := sweepSet(cfg, explorer(cfg.Workers, nil), chunks, sweepN, nil)
	checkSets("sweep without arena", noArena, base, rep)
	m["arena.off_ratio"] = noArenaSweep.Seconds() / baseSweep.Seconds()

	ring := obs.NewTrace()
	ring.SetWallClock(nil)
	ring.SetRingDepth(256)
	recEx := explorer(cfg.Workers, arenas)
	recEx.Trace = ring
	rec, recSweep := sweepSet(cfg, recEx, chunks, sweepN, nil)
	checkSets("sweep with recorder", rec, base, rep)
	m["chaos.recorder_on_ratio"] = recSweep.Seconds() / baseSweep.Seconds()

	path := traceFile(cfg, "explore")
	fmt.Fprintf(cfg.Log, "explore: chrome trace %s\n", path)
	return tr.writeChrome(path)
}
