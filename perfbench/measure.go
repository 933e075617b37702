package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/ghost-installer/gia/internal/obs"
)

// samples keeps every observed duration, so quantiles are exact order
// statistics rather than bucket bounds. It is safe for concurrent use.
type samples struct {
	mu sync.Mutex
	ns []int64
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.ns = append(s.ns, int64(d))
	s.mu.Unlock()
}

// dist is a sorted snapshot of a sample set.
type dist []int64

func (s *samples) dist() dist {
	s.mu.Lock()
	defer s.mu.Unlock()
	return dist(s.ns).sorted()
}

func (d dist) sorted() dist {
	d = slices.Clone(d)
	slices.Sort(d)
	return d
}

// q returns the q-quantile in nanoseconds (nearest rank), 0 when empty.
func (d dist) q(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(d)))) - 1
	i = max(0, min(i, len(d)-1))
	return float64(d[i])
}

func (d dist) mean() float64 {
	if len(d) == 0 {
		return 0
	}
	var sum float64
	for _, v := range d {
		sum += float64(v)
	}
	return sum / float64(len(d))
}

// tail names the highest of p99.9, p99, p90 and p50 that has at least ten
// samples beyond it, the percentile a timing is reported with.
func (d dist) tail() (label string, q float64) {
	for _, p := range []struct {
		label string
		q     float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.90}} {
		if float64(len(d))*(1-p.q) >= 10 {
			return p.label, p.q
		}
	}
	return "p50", 0.5
}

// median of a float slice (the per-repetition aggregate every phase uses).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// upperQuartile is the nearest-rank 75th percentile of repetition rates,
// the throughput a phase reports: contention from other tenants of a
// shared host only ever slows a repetition down, so the upper quartile
// tracks the program's own speed where the median tracks the neighbours'.
func upperQuartile(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	return s[int(math.Ceil(0.75*float64(len(s))))-1]
}

// lowerQuartile is the nearest-rank 25th percentile: the time counterpart
// of upperQuartile.
func lowerQuartile(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	return s[int(math.Ceil(0.25*float64(len(s))))-1]
}

// peakRSSMB reads the process's VmHWM from /proc/self/status, in MiB.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) >= 2 {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// rssPeaks keeps the peak resident set of each repetition of each phase.
// The process-wide VmHWM of a workload with a small live heap and
// megabyte allocation bursts is the luckiest spike of the whole run, so
// the run reports, per phase, the median of its repetitions' peaks, and
// the largest of those medians.
type rssPeaks map[string][]float64

// begin resets the kernel's peak-RSS mark for the next repetition. Where
// the reset is refused the marks accumulate, and every phase reports the
// process peak so far.
func (p rssPeaks) begin() {
	if p == nil {
		return
	}
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// end records the repetition's peak under phase. Both are no-ops on a nil
// rssPeaks.
func (p rssPeaks) end(phase string) {
	if p != nil {
		p[phase] = append(p[phase], peakRSSMB())
	}
}

// String lists each phase's median peak, in MiB.
func (p rssPeaks) String() string {
	phases := make([]string, 0, len(p))
	for phase := range p {
		phases = append(phases, phase)
	}
	slices.Sort(phases)
	var b strings.Builder
	for _, phase := range phases {
		fmt.Fprintf(&b, " %s=%.1f", phase, median(p[phase]))
	}
	return strings.TrimSpace(b.String())
}

// value is the largest per-phase median peak, in MiB.
func (p rssPeaks) value() float64 {
	v := 0.0
	for _, peaks := range p {
		v = max(v, median(peaks))
	}
	return v
}

// cpuTimes reads the aggregate busy and stolen jiffies from /proc/stat.
// Steal is CPU time the hypervisor gave other guests while this one had
// work: on a shared host it explains a slow run.
func cpuTimes() (busy, steal float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	var v [8]float64
	for i := range v {
		v[i], _ = strconv.ParseFloat(f[i+1], 64)
	}
	// user nice system idle iowait irq softirq steal
	return v[0] + v[1] + v[2] + v[5] + v[6], v[7]
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// Go runtime metrics read per phase.
const (
	rtAllocObjects = "/gc/heap/allocs:objects"
	rtAllocBytes   = "/gc/heap/allocs:bytes"
	rtGCCPU        = "/cpu/classes/gc/total:cpu-seconds"
	rtTotalCPU     = "/cpu/classes/total:cpu-seconds"
	rtGCPauses     = "/sched/pauses/total/gc:seconds"
	rtSchedLat     = "/sched/latencies:seconds"
	rtHeapLive     = "/gc/heap/live:bytes"
)

// rtSnap is one reading of the runtime metrics above.
type rtSnap struct {
	allocObjects, allocBytes uint64
	gcCPU, totalCPU          float64
	pauses, schedLat         *metrics.Float64Histogram
	heapLive                 uint64
}

func readRuntime() rtSnap {
	ss := []metrics.Sample{
		{Name: rtAllocObjects}, {Name: rtAllocBytes}, {Name: rtGCCPU}, {Name: rtTotalCPU},
		{Name: rtGCPauses}, {Name: rtSchedLat}, {Name: rtHeapLive},
	}
	metrics.Read(ss)
	var r rtSnap
	for _, s := range ss {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			v := s.Value.Uint64()
			switch s.Name {
			case rtAllocObjects:
				r.allocObjects = v
			case rtAllocBytes:
				r.allocBytes = v
			case rtHeapLive:
				r.heapLive = v
			}
		case metrics.KindFloat64:
			v := s.Value.Float64()
			switch s.Name {
			case rtGCCPU:
				r.gcCPU = v
			case rtTotalCPU:
				r.totalCPU = v
			}
		case metrics.KindFloat64Histogram:
			h := s.Value.Float64Histogram()
			switch s.Name {
			case rtGCPauses:
				r.pauses = h
			case rtSchedLat:
				r.schedLat = h
			}
		}
	}
	return r
}

// rtDelta is what a phase cost the Go runtime.
type rtDelta struct {
	AllocObjects, AllocBytes uint64
	GCCPUFraction            float64
	GCPauseP99Ms             float64
	SchedLatP99Ms            float64
	HeapLiveMB               float64
}

func (a rtSnap) delta(b rtSnap) rtDelta {
	d := rtDelta{
		AllocObjects: b.allocObjects - a.allocObjects,
		AllocBytes:   b.allocBytes - a.allocBytes,
		HeapLiveMB:   float64(b.heapLive) / (1 << 20),
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		d.GCCPUFraction = (b.gcCPU - a.gcCPU) / cpu
	}
	d.GCPauseP99Ms = histDeltaQuantile(a.pauses, b.pauses, 0.99) * 1e3
	d.SchedLatP99Ms = histDeltaQuantile(a.schedLat, b.schedLat, 0.99) * 1e3
	return d
}

// histDeltaQuantile is the q-quantile of the observations a runtime
// histogram gained between two readings, reported as the upper edge of
// the bucket holding it.
func histDeltaQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	if b == nil {
		return 0
	}
	counts := slices.Clone(b.Counts)
	if a != nil && len(a.Counts) == len(counts) {
		for i := range counts {
			counts[i] -= a.Counts[i]
		}
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			hi := b.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.Buckets[i]
			}
			return hi
		}
	}
	return 0
}

// counterDelta returns every registry counter's change between two
// snapshots, so a phase reports its own work rather than the run's total.
func counterDelta(before, after obs.Snapshot) map[string]int64 {
	out := make(map[string]int64, len(after.Counters))
	for _, c := range after.Counters {
		out[c.Name] = c.Value - before.Counter(c.Name)
	}
	return out
}

// histDelta subtracts two readings of one registry histogram.
func histDelta(before, after obs.Snapshot, name string) (count, sum int64) {
	find := func(s obs.Snapshot) (int64, int64) {
		for _, h := range s.Histograms {
			if h.Name == name {
				return h.Count, h.Sum
			}
		}
		return 0, 0
	}
	c0, s0 := find(before)
	c1, s1 := find(after)
	return c1 - c0, s1 - s0
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
