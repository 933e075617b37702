package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/ghost-installer/gia/internal/analysis"
	"github.com/ghost-installer/gia/internal/chaos"
	"github.com/ghost-installer/gia/internal/obs"
	"github.com/ghost-installer/gia/internal/serve"
)

// tinyConfig shrinks a workload to a few seconds.
func tinyConfig(t *testing.T, trace bool, log *bytes.Buffer) config {
	return config{
		Seed: 7, Seconds: 1, Trace: trace, Workers: min(2, runtime.NumCPU()),
		Out: t.TempDir(), Scale: 0.02, Log: log,
	}
}

// TestWorkloadsTinyScale runs every workload untraced and traced at tiny
// scale and checks the oracle passes and every metric of the mode is
// printed with its unit, both in the report and in the result line.
func TestWorkloadsTinyScale(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			mode := map[bool]string{false: "untraced", true: "traced"}[trace]
			t.Run(name+"/"+mode, func(t *testing.T) {
				var log bytes.Buffer
				cfg := tinyConfig(t, trace, &log)
				res, err := execute(name, workloads[name], cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, log.String())
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics in the result, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.name]
					if !ok || v.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %q", d.name, v, d.unit)
					}
					if !strings.Contains(log.String(), "metric "+d.name+" ") {
						t.Errorf("metric %s not printed", d.name)
					}
					if !trace && !(v.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, v.Value)
					}
				}
				if !strings.Contains(log.String(), "num_cpu=") || !strings.Contains(log.String(), "oracle: ok") {
					t.Errorf("report lacks the host stamp or the oracle verdict:\n%s", log.String())
				}
				if trace {
					if _, err := os.Stat(traceFile(cfg, name)); err != nil {
						t.Errorf("no Chrome trace: %v", err)
					}
				}
			})
		}
	}
}

func workloadNames() []string {
	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// TestBenchmarkJSONListsEveryMetric holds BENCHMARK.json to the metrics
// and workloads the program reports.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if want := workloadNames(); !slices.Equal(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != d.better {
				t.Errorf("%s[%d] = %+v, want %+v", kind, i, got[i], d)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

// TestScanOraclesRejectCorruption corrupts each scan output in turn.
func TestScanOraclesRejectCorruption(t *testing.T) {
	cfg := config{Seed: 3, Workers: 2, Scale: 0.005}
	in := buildScanInput(cfg, nil)
	reg := obs.NewRegistry()
	eng := newScanEngine(reg)
	census := scanPass(eng, reg, in, cfg.Workers)
	rescan := scanPass(eng, reg, in, cfg.Workers)

	var rep report
	checkPassesAgree("clean", census.stats, rescan.stats, &rep)
	checkScanReports(cfg, in, census, &rep)
	if len(rep.Mismatches) != 0 {
		t.Fatalf("clean scan rejected: %v", rep.Mismatches)
	}

	corrupt := []struct {
		name  string
		apply func(p *passResult, s *analysis.ScanStats, in *scanInput)
	}{
		{"per-rule count", func(_ *passResult, s *analysis.ScanStats, _ *scanInput) {
			s.PerRule = maps.Clone(s.PerRule)
			s.PerRule[analysis.RuleIDInstallAPI]++
		}},
		{"score histogram", func(_ *passResult, s *analysis.ScanStats, _ *scanInput) { s.ScoreHist[0]++ }},
		{"instruction count", func(_ *passResult, s *analysis.ScanStats, _ *scanInput) { s.Stats.Instructions-- }},
		{"reference findings", func(p *passResult, _ *analysis.ScanStats, _ *scanInput) {
			p.reports = slices.Clone(p.reports)
			for i := range p.reports {
				p.reports[i].Score++
			}
		}},
		{"install-API ground truth", func(_ *passResult, _ *analysis.ScanStats, in *scanInput) {
			in.apps = slices.Clone(in.apps)
			in.apps[0].HasInstallAPI = !in.apps[0].HasInstallAPI
		}},
	}
	for _, c := range corrupt {
		t.Run(c.name, func(t *testing.T) {
			p, s, inc := census, rescan.stats, *in
			c.apply(&p, &s, &inc)
			var rep report
			checkPassesAgree(c.name, census.stats, s, &rep)
			checkScanReports(cfg, &inc, p, &rep)
			if len(rep.Mismatches) == 0 {
				t.Errorf("corrupted %s accepted", c.name)
			}
		})
	}
}

// TestExploreOraclesRejectCorruption feeds the explore oracles a violation,
// a truncation and each statistic that must not depend on workers.
func TestExploreOraclesRejectCorruption(t *testing.T) {
	good := chunkOut{res: &chaos.Result{Explored: 64, MaxBranch: 2}, endSum: 1000, ends: true}
	var rep report
	checkChunk("clean", good, &rep)
	checkSameStats("clean", good, good, &rep)
	if len(rep.Mismatches) != 0 {
		t.Fatalf("clean chunk rejected: %v", rep.Mismatches)
	}
	bad := map[string]chunkOut{
		"violation":   {res: &chaos.Result{Explored: 64, MaxBranch: 2, Violations: 1, First: &chaos.Violation{}}, endSum: 1000, ends: true},
		"truncated":   {res: &chaos.Result{Explored: 64, MaxBranch: 2, Truncated: true}, endSum: 1000, ends: true},
		"explored":    {res: &chaos.Result{Explored: 63, MaxBranch: 2}, endSum: 1000, ends: true},
		"por skipped": {res: &chaos.Result{Explored: 64, MaxBranch: 2, PORSkipped: 1}, endSum: 1000, ends: true},
		"max branch":  {res: &chaos.Result{Explored: 64, MaxBranch: 3}, endSum: 1000, ends: true},
		"end times":   {res: &chaos.Result{Explored: 64, MaxBranch: 2}, endSum: 1001, ends: true},
	}
	for name, c := range bad {
		var rep report
		checkChunk(name, c, &rep)
		checkSameStats(name, good, c, &rep)
		if len(rep.Mismatches) == 0 {
			t.Errorf("corrupted %s accepted", name)
		}
	}
}

// TestFleetOraclesRejectCorruption feeds the fleet verdicts a wrong
// outcome of each kind.
func TestFleetOraclesRejectCorruption(t *testing.T) {
	clean := serve.InstallResult{Installed: true, Clean: true}
	if err := installVerdict("d1", clean); err != nil {
		t.Fatalf("clean install rejected: %v", err)
	}
	for _, bad := range []serve.InstallResult{
		{Installed: true},
		{Installed: true, Hijacked: true},
		{Clean: true},
		{Installed: true, Clean: true, Err: "transaction did not complete within the horizon"},
	} {
		if installVerdict("d1", bad) == nil {
			t.Errorf("install %+v accepted", bad)
		}
	}
	if err := attackVerdict("d1", serve.AttackResult{Hijacked: true}); err != nil {
		t.Fatalf("hijack rejected: %v", err)
	}
	if attackVerdict("d1", serve.AttackResult{Installed: true}) == nil {
		t.Error("missed hijack accepted")
	}
	var rep report
	checkDeviceCount(1000, 1000, &rep)
	if len(rep.Mismatches) != 0 {
		t.Fatalf("full fleet rejected: %v", rep.Mismatches)
	}
	checkDeviceCount(999, 1000, &rep)
	if len(rep.Mismatches) != 1 {
		t.Error("shrunken fleet accepted")
	}
}

// TestFleetRunFailsOnBadResponse runs the tiny fleet workload behind a
// handler that corrupts one kind of response and checks the run is
// incorrect.
func TestFleetRunFailsOnBadResponse(t *testing.T) {
	corrupt := map[string]func(w http.ResponseWriter, r *http.Request) bool{
		"missed hijack": func(w http.ResponseWriter, r *http.Request) bool {
			if !strings.HasSuffix(r.URL.Path, "/attack") {
				return false
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{"hijacked":false,"installed":true}`))
			return true
		},
		"hijacked install": func(w http.ResponseWriter, r *http.Request) bool {
			if !strings.HasSuffix(r.URL.Path, "/install") {
				return false
			}
			w.Write([]byte(`{"installed":true,"clean":false,"hijacked":true}`))
			return true
		},
		"server error": func(w http.ResponseWriter, r *http.Request) bool {
			if r.Method != http.MethodGet || !strings.HasPrefix(r.URL.Path, "/devices/") {
				return false
			}
			http.Error(w, "injected", http.StatusServiceUnavailable)
			return true
		},
	}
	for name, bad := range corrupt {
		t.Run(name, func(t *testing.T) {
			var log bytes.Buffer
			cfg := tinyConfig(t, false, &log)
			cfg.wrapHandler = func(next http.Handler) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if !bad(w, r) {
						next.ServeHTTP(w, r)
					}
				})
			}
			res, err := execute("fleet", runFleet, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 || !strings.Contains(log.String(), "oracle: FAILED") {
				t.Errorf("corrupted run accepted: correct=%v failed=%d\n%s", res.Correct, res.Failed, log.String())
			}
		})
	}
}

// TestFailedOracleFailsTheRun checks a mismatch makes the result incorrect
// and counts as a failure.
func TestFailedOracleFailsTheRun(t *testing.T) {
	var log bytes.Buffer
	res, err := execute("stub", func(config) (*report, error) {
		rep := &report{Attempted: 10, Metrics: map[string]float64{}}
		rep.mismatch("corrupted")
		return rep, nil
	}, config{Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 || !strings.Contains(log.String(), "oracle: FAILED") {
		t.Errorf("correct=%v failed=%d\n%s", res.Correct, res.Failed, log.String())
	}
}

// TestQuantiles pins the order statistics the metrics use.
func TestQuantiles(t *testing.T) {
	var s samples
	for i := 1; i <= 1000; i++ {
		s.add(time.Duration(i))
	}
	d := s.dist()
	if d.q(0.5) != 500 || d.q(0.99) != 990 || d.q(1) != 1000 {
		t.Errorf("p50=%v p99=%v max=%v", d.q(0.5), d.q(0.99), d.q(1))
	}
	if label, _ := d.tail(); label != "p99" {
		t.Errorf("tail of 1000 samples = %s, want p99", label)
	}
	if median([]float64{3, 1, 2}) != 2 || median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Error("median")
	}
}
