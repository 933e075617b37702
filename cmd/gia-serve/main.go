// Command gia-serve runs the fleet-as-a-service daemon: a long-lived HTTP/
// JSON API managing thousands of concurrent simulated devices (create,
// install, attack, chaos replay, reclaim) backed by per-shard device
// arenas, plus a built-in open-loop load generator.
//
// Serve mode (default):
//
//	gia-serve -addr 127.0.0.1:8436 -shards 4 -idle-reclaim 5m
//
// Load-test mode — boots a fleet, offers an open-loop arrival stream and
// prints p50/p99 arrival-to-completion latency from the obs histogram:
//
//	gia-serve -loadtest -devices 1000 -rate 1500 -duration 10s
//
// Smoke mode — drives one device through the full HTTP lifecycle against
// an already-running daemon (used by verify.sh):
//
//	gia-serve -smoke http://127.0.0.1:8436
//
// Watch mode — polls a running daemon's /slo once per second and prints a
// one-line fleet summary (tx, rolling error rate, p50/p99, per-shard):
//
//	gia-serve -watch http://127.0.0.1:8436
//
// The fleet keeps an always-on flight recorder: one bounded ring of trace
// events per device, sized by -flight-recorder-depth. With -dump-dir set,
// chaos replay violations, serve transaction errors and failed arena
// resets each dump their ring tails retroactively as Chrome-trace JSON +
// JSONL. In loadtest mode, -trace and -metrics export the recorder and
// the metrics snapshot on exit — flushed on error exits too.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/ghost-installer/gia/internal/obs"
	"github.com/ghost-installer/gia/internal/serve"
)

// Connection deadlines for serve mode. A client gets readHeaderTimeout to
// send its request line and headers (a stalled or trickling client cannot
// hold a connection open indefinitely) and an idle keep-alive connection
// is closed after idleTimeout. There is deliberately no write timeout: the
// ?follow=1 trace and /events streams are long-lived responses.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8436", "listen address (host:port; port 0 picks a free port)")
		shards      = flag.Int("shards", 4, "goroutine-owned device arena shards")
		seed        = flag.Int64("seed", 2017, "base seed for per-device RNG streams")
		idleReclaim = flag.Duration("idle-reclaim", 0, "reclaim devices idle this long to their shard pool (0 disables)")
		flightDepth = flag.Int("flight-recorder-depth", 0, "per-device flight-recorder ring depth in events (0 = default, negative disables)")
		dumpDir     = flag.String("dump-dir", "", "dump flight-recorder tails here on replay violations, tx errors and failed arena resets")

		loadtest    = flag.Bool("loadtest", false, "run the built-in open-loop load generator instead of serving")
		devices     = flag.Int("devices", 1000, "loadtest: concurrent fleet size")
		rate        = flag.Float64("rate", 1000, "loadtest: offered arrivals per second")
		duration    = flag.Duration("duration", 5*time.Second, "loadtest: arrival window")
		churnEvery  = flag.Int("churn", 4, "loadtest: every Nth arrival reclaims+recreates its device (0 disables)")
		attackEvery = flag.Int("attack-every", 0, "loadtest: every Nth arrival runs an attack (0 disables)")
		store       = flag.String("store", "amazon", "loadtest: store profile for fleet devices")
		benchJSON   = flag.String("benchjson", "", "loadtest: record the serve entry into this BENCH_scan.json")
		tracePath   = flag.String("trace", "", "loadtest: export the flight recorder on exit (Chrome JSON, or JSONL if the path ends in .jsonl)")
		metricsPath = flag.String("metrics", "", "loadtest: write the metrics snapshot to this file on exit (- for stderr)")

		smoke = flag.String("smoke", "", "run the HTTP smoke sequence against a daemon at this URL, then exit")
		watch = flag.String("watch", "", "poll /slo at this daemon URL once per second and print one-line summaries")
	)
	flag.Parse()

	if *smoke != "" {
		if err := runSmoke(*smoke); err != nil {
			fmt.Fprintf(os.Stderr, "gia-serve: smoke failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("gia-serve: smoke ok")
		return
	}
	if *watch != "" {
		if err := runWatch(*watch); err != nil {
			fmt.Fprintf(os.Stderr, "gia-serve: watch: %v\n", err)
			os.Exit(1)
		}
		return
	}

	reg := obs.NewRegistry()
	fleet := serve.NewFleet(serve.Config{
		Shards:      *shards,
		Seed:        *seed,
		IdleReclaim: *idleReclaim,
		FlightDepth: *flightDepth,
		DumpDir:     *dumpDir,
		Registry:    reg,
	})

	if *loadtest {
		report, err := serve.RunLoad(fleet, serve.LoadConfig{
			Devices:     *devices,
			Rate:        *rate,
			Duration:    *duration,
			ChurnEvery:  *churnEvery,
			AttackEvery: *attackEvery,
			Seed:        *seed,
			Store:       *store,
			Registry:    reg,
		})
		// Flush telemetry before inspecting the outcome: an errored or
		// violating run must not drop its trace and metrics.
		if werr := writeTelemetry(fleet, reg, *tracePath, *metricsPath); werr != nil {
			fmt.Fprintf(os.Stderr, "gia-serve: %v\n", werr)
			fleet.Close()
			os.Exit(1)
		}
		fleet.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "gia-serve: loadtest: %v\n", err)
			os.Exit(1)
		}
		report.WriteReport(os.Stdout)
		if *benchJSON != "" {
			if err := recordBench(*benchJSON, *shards, report); err != nil {
				fmt.Fprintf(os.Stderr, "gia-serve: record bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("recorded serve entry in %s\n", *benchJSON)
		}
		if report.Errors > 0 {
			os.Exit(1)
		}
		return
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gia-serve: listen: %v\n", err)
		os.Exit(1)
	}
	srv := &http.Server{
		Handler:           serve.NewHandler(fleet, reg),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	// The listening line is the daemon's readiness signal; verify.sh and
	// scripts scrape the URL from it (port 0 resolves here).
	fmt.Printf("gia-serve: listening on http://%s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "gia-serve: serve: %v\n", err)
			os.Exit(1)
		}
	case <-ctx.Done():
	}
	stop()

	// Graceful shutdown: stop accepting, drain HTTP handlers, then drain
	// the fleet's in-flight transactions.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(os.Stderr, "gia-serve: shutdown: %v\n", err)
	}
	fleet.Close()
	fmt.Println("gia-serve: drained and stopped")
}
