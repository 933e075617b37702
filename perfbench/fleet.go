package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ghost-installer/gia/internal/obs"
	"github.com/ghost-installer/gia/internal/serve"
)

// Fleet workload settings.
const (
	fleetDevices   = 1000
	fleetShards    = 4  // the shipped default
	timelineEvery  = 10 // one device in ten records a timeline
	churnEvery     = 4
	attackEvery    = 7
	statusEvery    = 5
	timelineGetsEv = 11
	lowRate        = 1000.0
	highRate       = 2000.0
	mixPeriod      = churnEvery * attackEvery * statusEvery * timelineGetsEv
	ladderStep     = 1.25
	ladderRungs    = 8
	latencyLimit   = 50 * time.Millisecond
	scrapeEvery    = time.Second
)

// fleetEnv is one running server: the Fleet, the HTTP layer over it on a
// loopback listener, and the device slots the load addresses.
type fleetEnv struct {
	fleet  *serve.Fleet
	reg    *obs.Registry
	timed  *timedService // non-nil in the traced run
	srv    *http.Server
	done   chan struct{}
	base   string
	client *http.Client
	scrape *http.Client
	slots  []atomic.Value // device ID per slot
	locks  []sync.Mutex   // held across a slot's churn
}

// envOptions select the server's configuration.
type envOptions struct {
	devices     int
	flightDepth int  // 0: the shipped default ring depth
	timed       bool // wrap the Fleet in the timing decorator
	tr          *tracer
}

// startFleet boots the server and its devices over HTTP: the fleet
// workload's set-up.
func startFleet(cfg config, o envOptions) (*fleetEnv, error) {
	reg := obs.NewRegistry()
	e := &fleetEnv{
		fleet: serve.NewFleet(serve.Config{Shards: fleetShards, Seed: cfg.Seed, Registry: reg, FlightDepth: o.flightDepth}),
		reg:   reg,
		done:  make(chan struct{}),
		slots: make([]atomic.Value, o.devices),
		locks: make([]sync.Mutex, o.devices),
	}
	var svc serve.Service = e.fleet
	var h http.Handler
	if o.timed {
		e.timed = newTimedService(e.fleet, o.tr)
		svc = e.timed
		h = e.timed.middleware(serve.NewHandler(svc, reg))
	} else {
		h = serve.NewHandler(svc, reg)
	}
	if cfg.wrapHandler != nil {
		h = cfg.wrapHandler(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.fleet.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	e.base = "http://" + ln.Addr().String()
	e.srv = &http.Server{Handler: h}
	go func() {
		defer close(e.done)
		e.srv.Serve(ln)
	}()
	tr := &http.Transport{
		MaxConnsPerHost: cfg.Workers, MaxIdleConnsPerHost: cfg.Workers,
		DisableCompression: true, IdleConnTimeout: time.Minute,
	}
	e.client = &http.Client{Transport: tr, Timeout: time.Minute}
	e.scrape = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}, Timeout: time.Minute}

	var next atomic.Int64
	errs := make([]error, cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= o.devices {
					return
				}
				id, err := e.create(context.Background(), i%timelineEvery == 0, nil, 0)
				if err != nil {
					errs[w] = fmt.Errorf("boot device %d: %w", i, err)
					return
				}
				e.slots[i].Store(id)
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		e.stop()
		return nil, err
	}
	return e, nil
}

// stop shuts the server down and closes the fleet, waiting for both.
func (e *fleetEnv) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	e.srv.Shutdown(ctx)
	<-e.done
	e.client.CloseIdleConnections()
	e.scrape.CloseIdleConnections()
	e.fleet.Close()
}

// httpResult is one request's status and the server-side times the timing
// decorator reported (zero when untimed).
type httpResult struct {
	status    int
	rtNS      int64 // client round trip
	serviceNS int64
	execNS    int64
}

// do sends one request and decodes a JSON response into out.
func (e *fleetEnv) do(ctx context.Context, c *http.Client, method, path string, body any, out any, id int64) (httpResult, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return httpResult{}, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, e.base+path, rd)
	if err != nil {
		return httpResult{}, err
	}
	if id > 0 {
		req.Header.Set(hdrRequestID, strconv.FormatInt(id, 10))
	}
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return httpResult{}, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return httpResult{}, err
	}
	res := httpResult{status: resp.StatusCode, rtNS: time.Since(t0).Nanoseconds()}
	res.serviceNS, _ = strconv.ParseInt(resp.Header.Get(hdrServiceNS), 10, 64)
	res.execNS, _ = strconv.ParseInt(resp.Header.Get(hdrExecNS), 10, 64)
	if resp.StatusCode/100 != 2 {
		return res, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return res, fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return res, nil
}

func (e *fleetEnv) create(ctx context.Context, timeline bool, rec func(string, httpResult), n int64) (string, error) {
	var info serve.DeviceInfo
	res, err := e.do(ctx, e.client, http.MethodPost, "/devices", serve.CreateDeviceRequest{Timeline: timeline}, &info, n)
	if rec != nil {
		rec("create", res)
	}
	if err != nil {
		return "", err
	}
	if info.ID == "" {
		return "", fmt.Errorf("create: empty device id")
	}
	return info.ID, nil
}

// opKind is what one arrival does.
type opKind int

const (
	opInstall opKind = iota
	opAttack
	opChurn
	opStatus
	opTimeline
)

var opNames = [...]string{"install", "attack", "churn", "status", "timeline"}

// kindOf is the arrival mix: every 4th arrival churns, every 7th attacks,
// some read status or a timeline, the rest install.
func kindOf(n int64) opKind {
	switch {
	case n%churnEvery == 0:
		return opChurn
	case n%attackEvery == 0:
		return opAttack
	case n%statusEvery == 0:
		return opStatus
	case n%timelineGetsEv == 0:
		return opTimeline
	default:
		return opInstall
	}
}

// readOf is the read-only mix: every 11th arrival reads a timeline, the
// rest read a device's status.
func readOf(n int64) opKind {
	if n%timelineGetsEv == 0 {
		return opTimeline
	}
	return opStatus
}

// rungResult is one fixed-rate window.
type rungResult struct {
	rate      float64
	window    time.Duration // arrival window
	total     time.Duration // window plus drain
	arrivals  int64
	ok        int64
	failed    int64 // non-2xx responses, transport and scrape errors
	wrong     int64 // 2xx responses with the wrong verdict
	raced     int64
	lat       dist // completion − due (closed loop: − send), successful arrivals
	lag       dist // dispatch − due
	unsentEnd int64
	errs      []string
	scrapeMS  []float64
}

// outcome books one arrival's result: its latency if it succeeded, or its
// class of failure.
func (r *rungResult) outcome(err error, d time.Duration, lat *samples, mu *sync.Mutex) {
	mu.Lock()
	defer mu.Unlock()
	switch {
	case err == nil:
		r.ok++
		lat.add(d)
		return
	case errors.Is(err, errRaced):
		r.raced++
		return
	case errors.Is(err, errVerdict):
		r.wrong++
	default:
		r.failed++
	}
	if len(r.errs) < 8 {
		r.errs = append(r.errs, err.Error())
	}
}

// scraper polls /metrics?format=prom and /slo once per scrapeEvery, as
// gia-serve -watch does, booking each round trip and failure in r until
// the returned stop function is called.
func (e *fleetEnv) scraper(r *rungResult, mu *sync.Mutex) (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(scrapeEvery)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				t0 := time.Now()
				_, err := e.do(context.Background(), e.scrape, http.MethodGet, "/metrics?format=prom", nil, nil, 0)
				ms := float64(time.Since(t0).Nanoseconds()) / 1e6
				var slo serve.SLOReport
				if err == nil {
					_, err = e.do(context.Background(), e.scrape, http.MethodGet, "/slo", nil, &slo, 0)
				}
				mu.Lock()
				r.scrapeMS = append(r.scrapeMS, ms)
				if err != nil {
					r.failed++
					r.errs = append(r.errs, "scrape: "+err.Error())
				}
				mu.Unlock()
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// slotOf is the device slot arrival n of a run addresses; a timeline read
// goes to a device that records one.
func slotOf(seed, n int64, slots int, kind opKind) int {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(n)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	slot := int(x % uint64(slots))
	if kind == opTimeline {
		slot -= slot % timelineEvery
	}
	return slot
}

// okFor reports whether the rung meets the latency limit with no failures
// and no growing backlog of due-but-unsent requests.
func (r rungResult) okFor(workers int) bool {
	limit := max(int64(4*workers), int64(0.05*r.rate))
	return r.failed == 0 && r.wrong == 0 && time.Duration(r.lat.q(0.99)) <= latencyLimit && r.unsentEnd <= limit
}

// drive runs one open-loop window at a fixed rate: arrival n is due at
// start + n/rate and is timed from then, however late it is sent.
func (e *fleetEnv) drive(cfg config, rate float64, window time.Duration, seq *int64, tr *tracer) rungResult {
	// Collect first, so every rung starts its collection cycles from the
	// same heap state.
	runtime.GC()
	res := rungResult{rate: rate, window: window}
	var lat, lag samples
	var dispatched, sent atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	stopScrape := e.scraper(&res, &mu)

	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	for i := int64(1); ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if due.Sub(start) > window {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lag.add(time.Since(due))
		*seq++
		n := *seq
		dispatched.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			// An arrival counts as sent once its first request has a
			// connection; until then it is backlog.
			var gotConn atomic.Bool
			tctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
				GotConn: func(httptrace.GotConnInfo) {
					if gotConn.CompareAndSwap(false, true) {
						sent.Add(1)
					}
				},
			})
			kind := kindOf(n)
			sp := tr.open("fleet."+opNames[kind], n, int(n%64)+1, root)
			err := e.arrive(tctx, kind, slotOf(cfg.Seed, n, len(e.slots), kind), n, sp)
			sp.close()
			res.outcome(err, time.Since(due), &lat, &mu)
		}()
	}
	res.unsentEnd = dispatched.Load() - sent.Load()
	wg.Wait()
	res.total = time.Since(start)
	stopScrape()
	res.arrivals = dispatched.Load()
	res.lat, res.lag = lat.dist(), lag.dist()
	return res
}

// closedLoop performs the next ops arrivals of mix with nproc connections
// kept busy: each connection sends its next request as soon as the
// previous one completes, so the rate is what the server sustains.
// Latency is timed from each request's send.
func (e *fleetEnv) closedLoop(cfg config, ops int64, seq *int64, mix func(int64) opKind) rungResult {
	runtime.GC()
	var res rungResult
	var lat samples
	var mu sync.Mutex
	var wg sync.WaitGroup
	first := *seq
	*seq += ops
	var next atomic.Int64
	stopScrape := e.scraper(&res, &mu)
	start := time.Now()
	for c := 0; c < cfg.Workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1)
				if i > ops {
					return
				}
				n := first + i
				t0 := time.Now()
				kind := mix(n)
				err := e.arrive(context.Background(), kind, slotOf(cfg.Seed, n, len(e.slots), kind), n, root)
				res.outcome(err, time.Since(t0), &lat, &mu)
			}
		}()
	}
	wg.Wait()
	res.total = time.Since(start)
	stopScrape()
	res.arrivals, res.window = ops, res.total
	res.rate = float64(res.ok) / res.total.Seconds()
	res.lat = lat.dist()
	return res
}

// errRaced marks an arrival that lost a churn race: its device was
// reclaimed between the slot read and the request. Counted on its own.
var errRaced = errors.New("lost churn race")

// errVerdict marks a 2xx response whose content the oracle rejects.
var errVerdict = errors.New("wrong verdict")

// arrive performs one arrival and checks its verdict.
func (e *fleetEnv) arrive(ctx context.Context, kind opKind, slot int, n int64, parent span) error {
	id, _ := e.slots[slot].Load().(string)
	path := "/devices/" + id
	rec := e.recordOp
	if e.timed != nil {
		e.timed.parents.Store(n, parent)
		defer e.timed.parents.Delete(n)
	}
	raced := func(res httpResult, err error) error {
		if res.status == http.StatusNotFound {
			return errRaced
		}
		return err
	}
	switch kind {
	case opInstall:
		var out serve.InstallResult
		res, err := e.do(ctx, e.client, http.MethodPost, path+"/install", nil, &out, n)
		rec("install", res)
		if err != nil {
			return raced(res, err)
		}
		return installVerdict(id, out)
	case opAttack:
		var out serve.AttackResult
		res, err := e.do(ctx, e.client, http.MethodPost, path+"/attack", nil, &out, n)
		rec("attack", res)
		if err != nil {
			return raced(res, err)
		}
		return attackVerdict(id, out)
	case opStatus:
		var out serve.DeviceInfo
		res, err := e.do(ctx, e.client, http.MethodGet, path, nil, &out, n)
		rec("get", res)
		if err != nil {
			return raced(res, err)
		}
		if out.ID != id {
			return fmt.Errorf("%w: status of %s returned device %q", errVerdict, id, out.ID)
		}
	case opTimeline:
		var out struct {
			Device string `json:"device"`
		}
		res, err := e.do(ctx, e.client, http.MethodGet, path+"/timeline", nil, &out, n)
		if err != nil {
			return raced(res, err)
		}
		if out.Device != id {
			return fmt.Errorf("%w: timeline of %s returned device %q", errVerdict, id, out.Device)
		}
	case opChurn:
		e.locks[slot].Lock()
		defer e.locks[slot].Unlock()
		id, _ = e.slots[slot].Load().(string)
		res, err := e.do(ctx, e.client, http.MethodDelete, "/devices/"+id, nil, nil, n)
		rec("delete", res)
		if err != nil {
			return err
		}
		nid, err := e.create(ctx, slot%timelineEvery == 0, rec, n)
		if err != nil {
			return err
		}
		e.slots[slot].Store(nid)
	}
	return nil
}

// installVerdict is the install oracle: a clean install, not hijacked.
func installVerdict(id string, out serve.InstallResult) error {
	if !out.Installed || !out.Clean || out.Hijacked || out.Err != "" {
		return fmt.Errorf("%w: install on %s: want a clean install, got %+v", errVerdict, id, out)
	}
	return nil
}

// attackVerdict is the attack oracle: the file-observer attack on an
// unpatched Amazon device hijacks the install.
func attackVerdict(id string, out serve.AttackResult) error {
	if !out.Hijacked {
		return fmt.Errorf("%w: file-observer attack on %s: want Hijacked, got %+v", errVerdict, id, out)
	}
	return nil
}

// recordOp books one request's client-side view with the timing
// decorator (a no-op when the server is untimed).
func (e *fleetEnv) recordOp(op string, res httpResult) {
	if e.timed != nil {
		e.timed.observe(op, res)
	}
}

// Shares of the window: the open-loop low and high rates, whose latencies
// are printed, then the read-only and the full-mix closed loop, the two
// measured throughputs.
const (
	lowShare  = 0.15
	highShare = 0.15
	readShare = 0.35
)

// rungSummary prints one rung.
func rungSummary(cfg config, name string, r rungResult) {
	label, q := r.lat.tail()
	fmt.Fprintf(cfg.Log, "fleet: %s rate=%.0f ops/s window=%.2fs arrivals=%d ok=%d failed=%d wrong=%d raced=%d p50=%.3fms %s=%.3fms n=%d lag_p99=%.3fms unsent_at_end=%d ok_for_limit=%v\n",
		name, r.rate, r.window.Seconds(), r.arrivals, r.ok, r.failed, r.wrong, r.raced, r.lat.q(0.5)/1e6, label, r.lat.q(q)/1e6, len(r.lat),
		r.lag.q(0.99)/1e6, r.unsentEnd, r.okFor(cfg.Workers))
	for _, e := range r.errs {
		fmt.Fprintln(cfg.Log, "fleet:   error:", e)
	}
}

// book is the fleet oracle for one measured window: every arrival and
// scrape must get a 2xx response with the expected verdict, so any failure
// fails the run. Lost churn races are counted apart.
func book(rep *report, what string, r rungResult) {
	rep.Attempted += r.arrivals + int64(len(r.scrapeMS))
	rep.Failed += r.failed + r.wrong
	if r.failed+r.wrong > 0 {
		rep.mismatch("fleet %s: %d failed and %d wrong-verdict responses (first: %v)", what, r.failed, r.wrong, r.errs)
	}
}

// ladder climbs fixed rates from the low rate up by ladderStep and
// returns the highest that met the limit (0 if none did). The ladder
// overloads the server on purpose, so a failed request only stops the
// climb and is reported apart; a wrong verdict still fails the run.
func (e *fleetEnv) ladder(cfg config, low float64, window time.Duration, seq *int64, rep *report) float64 {
	best, rate := 0.0, low
	for k := 0; k < ladderRungs; k++ {
		r := e.drive(cfg, rate, window/ladderRungs, seq, nil)
		name := fmt.Sprintf("ladder[%d]", k)
		rungSummary(cfg, name, r)
		if r.wrong > 0 {
			rep.Attempted += r.arrivals
			rep.Failed += r.wrong
			rep.mismatch("fleet %s: %d wrong-verdict responses (first: %v)", name, r.wrong, r.errs)
		}
		if !r.okFor(cfg.Workers) {
			break
		}
		best = rate
		rate *= ladderStep
	}
	return best
}

// closedReps repeats closed-loop repetitions of ops arrivals of mix over
// nproc connections until the window is spent (at least three) and
// returns each one's rate and the churn races lost.
func (e *fleetEnv) closedReps(cfg config, what string, mix func(int64) opKind, ops int64, window time.Duration, seq *int64, rep *report, rss rssPeaks) (rates []float64, raced int64) {
	ops = max(mixPeriod/10, int64(float64(ops)*cfg.Scale))
	deadline := time.Now().Add(window)
	for r := 0; r < 3 || time.Now().Before(deadline); r++ {
		rss.begin()
		res := e.closedLoop(cfg, ops, seq, mix)
		rss.end(what)
		book(rep, fmt.Sprintf("%s rep %d", what, r), res)
		if r == 0 {
			rungSummary(cfg, what+" rep 0", res)
		}
		rates = append(rates, res.rate)
		raced += res.raced
	}
	return rates, raced
}

// A closed-loop repetition performs whole periods of its mix, so every
// repetition performs the same operations: four periods of reads (about
// half a second on a 2-vCPU host) and two of the full mix.
const (
	readRepOps     = 4 * mixPeriod
	capacityRepOps = 2 * mixPeriod
)

// checkDevices is the end-of-run oracle: churn kept the fleet at size.
func (e *fleetEnv) checkDevices(want int, rep *report) {
	var list struct {
		Count int `json:"count"`
	}
	if _, err := e.do(context.Background(), e.scrape, http.MethodGet, "/devices", nil, &list, 0); err != nil {
		rep.mismatch("list devices: %v", err)
		return
	}
	checkDeviceCount(list.Count, want, rep)
}

func checkDeviceCount(got, want int, rep *report) {
	if got != want {
		rep.mismatch("%d devices at the end, want %d", got, want)
	}
}

func runFleet(cfg config) (*report, error) {
	rep := &report{Metrics: map[string]float64{}}
	devices := max(2*timelineEvery, int(fleetDevices*cfg.Scale))
	low, high := lowRate*cfg.Scale, highRate*cfg.Scale
	window := time.Duration(cfg.Seconds * float64(time.Second))
	fmt.Fprintf(cfg.Log, "fleet: seed=%d devices=%d shards=%d flight_depth=default connections=%d low=%.0f high=%.0f ops/s closed-loop repetitions reads=%d mix=%d ops ladder x%.2f latency_limit=%s\n",
		cfg.Seed, devices, fleetShards, cfg.Workers, low, high, readRepOps, capacityRepOps, ladderStep, latencyLimit)
	if cfg.Trace {
		return rep, fleetTraced(cfg, devices, low, high, window, rep)
	}

	var setups []float64
	var env *fleetEnv
	rss := rssPeaks{}
	for r := 0; r < setupReps; r++ {
		if env != nil {
			env.stop()
		}
		runtime.GC()
		rss.begin()
		t0 := time.Now()
		var err error
		if env, err = startFleet(cfg, envOptions{devices: devices}); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		rss.end("setup")
	}
	defer env.stop()
	rep.Metrics["setup_s"] = median(setups)
	fmt.Fprintf(cfg.Log, "fleet: setup_s=%v\n", setups)

	var seq int64
	rss.begin()
	lo := env.drive(cfg, low, time.Duration(lowShare*float64(window)), &seq, nil)
	rss.end("low")
	rungSummary(cfg, "low", lo)
	book(rep, "low rate", lo)
	rss.begin()
	hi := env.drive(cfg, high, time.Duration(highShare*float64(window)), &seq, nil)
	rss.end("high")
	rungSummary(cfg, "high", hi)
	book(rep, "high rate", hi)

	readWindow := time.Duration(readShare * float64(window))
	reads, _ := env.closedReps(cfg, "reads", readOf, readRepOps, readWindow, &seq, rep, rss)
	capacity, raced := env.closedReps(cfg, "capacity", kindOf, capacityRepOps, window-readWindow-lo.window-hi.window, &seq, rep, rss)
	env.checkDevices(devices, rep)
	fmt.Fprintf(cfg.Log, "fleet: read_ops_per_s reps=%d %.1f\n", len(reads), reads)
	fmt.Fprintf(cfg.Log, "fleet: capacity_ops_per_s reps=%d %.1f\n", len(capacity), capacity)

	fmt.Fprintf(cfg.Log, "fleet: peak RSS MB per phase (median of repetitions): %v\n", rss)
	rep.Metrics["peak_rss_mb"] = rss.value()
	rep.Metrics["a_per_s"] = upperQuartile(reads)
	rep.Metrics["b_per_s"] = upperQuartile(capacity)
	rep.alias("read_ops_per_s", "ops/s", "a_per_s")
	rep.alias("capacity_ops_per_s", "ops/s", "b_per_s")
	rep.Named = append(rep.Named,
		namedValue{"goodput_ops_s_low", "ops/s", float64(lo.ok) / lo.total.Seconds()},
		namedValue{"goodput_ops_s_high", "ops/s", float64(hi.ok) / hi.total.Seconds()})
	rep.latency("tx_", "_ms_low", lo.lat)
	rep.latency("tx_", "_ms_high", hi.lat)
	rep.Named = append(rep.Named, namedValue{"lost_churn_races", "count", float64(lo.raced + hi.raced + raced)})
	return rep, nil
}

// fleetTraced is the traced fleet run: the high rate and the ladder on the
// shipped server for the per-phase deltas and the overhead base, the high
// rate again through the timing decorator with spans, and once more with
// the flight recorder off.
func fleetTraced(cfg config, devices int, low, high float64, window time.Duration, rep *report) error {
	m := rep.Metrics
	rung := window / 4
	var seq int64

	env, err := startFleet(cfg, envOptions{devices: devices})
	if err != nil {
		return err
	}
	before, rt0 := env.reg.Snapshot(), readRuntime()
	base := env.drive(cfg, high, rung, &seq, nil)
	after, rt := env.reg.Snapshot(), rt0.delta(readRuntime())
	rungSummary(cfg, "high (untraced)", base)
	book(rep, "high rate (untraced)", base)
	delta := counterDelta(before, after)
	hits, misses := float64(delta["arena.hits"]), float64(delta["arena.misses"])
	m["arena.hits"], m["arena.misses"] = hits, misses
	m["arena.reset_failures"] = float64(delta["arena.reset_failures"])
	m["arena.warm_hit_ratio"] = ratio(hits, hits+misses)
	if n, sum := histDelta(before, after, "arena.reset_ns"); n > 0 {
		m["arena.reset_mean_us"] = float64(sum) / float64(n) / 1e3
	}
	txN, txSum := histDelta(before, after, "serve.tx_ns")
	m["serve.shard_busy_ratio"] = float64(txSum) / (fleetShards * float64(base.total.Nanoseconds()))
	m["go.alloc_bytes_per_op"] = float64(rt.AllocBytes) / float64(max(base.arrivals, 1))
	m["go.gc_cpu_fraction"] = rt.GCCPUFraction
	m["go.gc_pause_p99_ms"] = rt.GCPauseP99Ms
	m["go.sched_latency_p99_ms"] = rt.SchedLatP99Ms
	m["go.heap_live_mb"] = rt.HeapLiveMB
	m["loadgen.lag_p99_ms"] = base.lag.q(0.99) / 1e6
	m["obs.scrape_ms"] = median(base.scrapeMS)
	m["loadgen.max_ok_rate_ops_s"] = env.ladder(cfg, low, 2*rung, &seq, rep)
	env.checkDevices(devices, rep)
	env.stop()

	tr := newTracer()
	timed, err := startFleet(cfg, envOptions{devices: devices, timed: true, tr: tr})
	if err != nil {
		return err
	}
	tracedRung := timed.drive(cfg, high, rung, &seq, tr)
	rungSummary(cfg, "high (traced)", tracedRung)
	book(rep, "high rate (traced)", tracedRung)
	timed.checkDevices(devices, rep)
	timed.stop()
	for op, o := range timed.timed.ops {
		for name, s := range map[string]*samples{"http_us": &o.http, "service_us": &o.service, "queue_wait_us": &o.queue, "exec_us": &o.exec} {
			d := s.dist()
			if len(d) == 0 {
				continue
			}
			m["serve."+op+"."+name+"_p50"] = d.q(0.5) / 1e3
			m["serve."+op+"."+name+"_p99"] = d.q(0.99) / 1e3
		}
	}
	m["trace_overhead_ratio"] = ratio(tracedRung.lat.q(0.5), base.lat.q(0.5))

	off, err := startFleet(cfg, envOptions{devices: devices, flightDepth: -1})
	if err != nil {
		return err
	}
	b2 := off.reg.Snapshot()
	offRung := off.drive(cfg, high, rung, &seq, nil)
	offN, offSum := histDelta(b2, off.reg.Snapshot(), "serve.tx_ns")
	rungSummary(cfg, "high (recorder off)", offRung)
	book(rep, "high rate (recorder off)", offRung)
	off.checkDevices(devices, rep)
	off.stop()
	m["serve.recorder_off_ratio"] = ratio(float64(offSum)/float64(max(offN, 1)), float64(txSum)/float64(max(txN, 1)))

	path := traceFile(cfg, "fleet")
	fmt.Fprintf(cfg.Log, "fleet: chrome trace %s\n", path)
	return tr.writeChrome(path)
}
