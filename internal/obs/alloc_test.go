package obs

import (
	"testing"
	"time"

	"github.com/ghost-installer/gia/internal/race"
)

// disabledHooks exercises every hook a hot path may contain, against nil
// receivers — exactly what instrumented code does when observability is
// off. It must allocate nothing.
func disabledHooks() {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var k *Track
	var tr *Trace
	var reg *Registry

	c.Add(1)
	c.Inc()
	_ = c.Value()
	g.Set(3)
	g.Add(-1)
	h.Observe(42)
	sp := k.Begin("span", "detail")
	sp.End()
	sp.EndDetail("outcome")
	k.Instant("point", "detail")
	k.InstantAt(time.Millisecond, "point", "detail")
	k.SpanAt(0, time.Millisecond, "span", "detail")
	k.SetClock(nil)
	_ = tr.VirtualTrack("v")
	_ = tr.WallTrack("w")
	_ = reg.Counter("c")
	_ = reg.Gauge("g")
	_ = reg.Histogram("h", nil)
}

// TestDisabledHooksZeroAlloc is the PR's core budget guarantee: with
// observability disabled, every hook site costs zero allocations, so the
// PR-4 per-instruction budgets are unaffected by compiled-in hooks.
func TestDisabledHooksZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	if allocs := testing.AllocsPerRun(1000, disabledHooks); allocs != 0 {
		t.Errorf("disabled hooks allocate %.1f allocs/op, want 0", allocs)
	}
}

func BenchmarkDisabledHooks(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		disabledHooks()
	}
}

func BenchmarkEnabledCounterAdd(b *testing.B) {
	reg := NewRegistry()
	c := reg.Counter("bench.hits")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkEnabledSpan(b *testing.B) {
	tr := NewTrace()
	tr.SetWallClock(TickingClock(time.Microsecond))
	k := tr.WallTrack("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := k.Begin("job", "")
		sp.End()
	}
}
