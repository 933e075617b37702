package obs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/ghost-installer/gia/internal/race"
)

func ringTrack(t *testing.T, depth int) *Track {
	t.Helper()
	tr := NewTrace()
	tr.SetRingDepth(depth)
	return tr.VirtualTrack("ring")
}

func TestRingOverwritesOldest(t *testing.T) {
	k := ringTrack(t, 4)
	for i := 0; i < 10; i++ {
		k.InstantAt(time.Duration(i), "ev", fmt.Sprintf("%d", i))
	}
	evs := k.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := fmt.Sprintf("%d", 6+i); ev.Detail != want {
			t.Errorf("event %d = %q, want %q (oldest-first window)", i, ev.Detail, want)
		}
	}
	if k.Dropped() != 6 {
		t.Errorf("dropped = %d, want 6", k.Dropped())
	}
}

func TestRingPartiallyFilled(t *testing.T) {
	k := ringTrack(t, 8)
	k.InstantAt(1, "a", "")
	k.InstantAt(2, "b", "")
	evs := k.Events()
	if len(evs) != 2 || evs[0].Name != "a" || evs[1].Name != "b" {
		t.Fatalf("partial ring events: %+v", evs)
	}
	if k.Dropped() != 0 {
		t.Errorf("dropped = %d on a non-full ring", k.Dropped())
	}
}

func TestRingEventsSincePages(t *testing.T) {
	k := ringTrack(t, 16)
	k.InstantAt(1, "a", "")
	k.InstantAt(2, "b", "")
	evs, next := k.EventsSince(0)
	if len(evs) != 2 || next != 2 {
		t.Fatalf("first page: %d events, next=%d", len(evs), next)
	}
	// No new events: empty page, cursor unchanged.
	evs, next = k.EventsSince(next)
	if len(evs) != 0 || next != 2 {
		t.Fatalf("idle page: %d events, next=%d", len(evs), next)
	}
	k.InstantAt(3, "c", "")
	evs, next = k.EventsSince(next)
	if len(evs) != 1 || evs[0].Name != "c" || next != 3 {
		t.Fatalf("incremental page: %+v next=%d", evs, next)
	}
}

func TestRingEventsSinceSkipsEvicted(t *testing.T) {
	k := ringTrack(t, 4)
	k.InstantAt(0, "old", "")
	_, next := k.EventsSince(0)
	for i := 0; i < 8; i++ {
		k.InstantAt(time.Duration(i+1), "new", fmt.Sprintf("%d", i))
	}
	// The consumer's cursor (1) points below the retained window; it gets
	// the window, not a panic or duplicates.
	evs, next2 := k.EventsSince(next)
	if len(evs) != 4 || next2 != 9 {
		t.Fatalf("lagging consumer: %d events, next=%d", len(evs), next2)
	}
	if evs[0].Detail != "4" {
		t.Errorf("window starts at %q, want \"4\"", evs[0].Detail)
	}
}

func TestRingSpanEndAfterEviction(t *testing.T) {
	k := ringTrack(t, 2)
	k.SetClock(func() time.Duration { return 5 })
	sp := k.Begin("open", "")
	for i := 0; i < 3; i++ {
		k.InstantAt(time.Duration(i), "flood", "")
	}
	sp.End() // the open event was evicted; must be a quiet no-op
	for _, ev := range k.Events() {
		if ev.Name == "open" {
			t.Fatalf("evicted span still present: %+v", ev)
		}
	}
	// A span that survives in the ring still closes normally.
	sp2 := k.Begin("kept", "")
	sp2.EndDetail("done")
	evs := k.Events()
	last := evs[len(evs)-1]
	if last.Name != "kept" || last.Detail != "done" || last.Dur != 0 {
		t.Fatalf("surviving ring span: %+v", last)
	}
}

func TestTailTrack(t *testing.T) {
	k := ringTrack(t, 8)
	for i := 0; i < 5; i++ {
		k.InstantAt(time.Duration(i), "ev", fmt.Sprintf("%d", i))
	}
	tail := TailTrack(k, 3)
	if tail.Name() != "ring" || tail.Domain() != DomainVirtual {
		t.Fatalf("tail identity: %q/%v", tail.Name(), tail.Domain())
	}
	evs := tail.Events()
	if len(evs) != 3 || evs[0].Detail != "2" || evs[2].Detail != "4" {
		t.Fatalf("tail events: %+v", evs)
	}
	if all := TailTrack(k, 0).Events(); len(all) != 5 {
		t.Errorf("TailTrack(0) = %d events, want all 5", len(all))
	}
	if TailTrack(nil, 3) != nil {
		t.Error("TailTrack(nil) must be nil")
	}
}

func TestSetRingDepthOnlyAffectsNewTracks(t *testing.T) {
	tr := NewTrace()
	unbounded := tr.VirtualTrack("before")
	tr.SetRingDepth(2)
	ring := tr.VirtualTrack("after")
	for i := 0; i < 5; i++ {
		unbounded.InstantAt(time.Duration(i), "ev", "")
		ring.InstantAt(time.Duration(i), "ev", "")
	}
	if got := len(unbounded.Events()); got != 5 {
		t.Errorf("pre-existing track bounded: %d events", got)
	}
	if got := len(ring.Events()); got != 2 {
		t.Errorf("ring track holds %d events, want 2", got)
	}
}

func TestTraceDrop(t *testing.T) {
	tr := NewTrace()
	tr.SetRingDepth(4)
	k := tr.VirtualTrack("device/1")
	k.InstantAt(1, "ev", "")
	tr.Drop(DomainVirtual, "device/1")
	if len(tr.Tracks()) != 0 {
		t.Fatal("dropped track still listed")
	}
	// Re-creating the name starts a fresh ring.
	if got := len(tr.VirtualTrack("device/1").Events()); got != 0 {
		t.Errorf("recreated track inherited %d events", got)
	}
	tr.Drop(DomainWall, "missing") // no-op
	var nilTr *Trace
	nilTr.Drop(DomainVirtual, "x") // nil-safe
	nilTr.SetRingDepth(8)
}

func TestRingExportsUseWindow(t *testing.T) {
	tr := NewTrace()
	tr.SetWallClock(nil)
	tr.SetRingDepth(2)
	k := tr.VirtualTrack("run")
	for i := 0; i < 5; i++ {
		k.InstantAt(time.Duration(i)*time.Millisecond, "ev", fmt.Sprintf("%d", i))
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("ring JSONL lines = %d, want 2:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], `"detail":"3"`) || !strings.Contains(lines[1], `"detail":"4"`) {
		t.Errorf("ring export window wrong:\n%s", buf.String())
	}
}

// TestRingAppendZeroAlloc is the flight recorder's core budget guarantee:
// once a ring track exists, recording an event is a slot store — zero
// allocations per append — so the recorder can stay always-on inside the
// serve transaction path and the chaos hot loops. verify.sh gates on it.
func TestRingAppendZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	tr := NewTrace()
	tr.SetRingDepth(64)
	k := tr.VirtualTrack("hot")
	k.SetClock(func() time.Duration { return 42 })
	allocs := testing.AllocsPerRun(1000, func() {
		k.InstantAt(7, "step", "detail")
		k.SpanAt(1, 2, "span", "detail")
		k.Instant("point", "detail")
		sp := k.Begin("open", "")
		sp.EndDetail("done")
	})
	if allocs != 0 {
		t.Errorf("ring appends allocate %.1f allocs/op, want 0", allocs)
	}
}

func BenchmarkRingAppend(b *testing.B) {
	tr := NewTrace()
	tr.SetRingDepth(256)
	k := tr.VirtualTrack("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.InstantAt(time.Duration(i), "ev", "detail")
	}
}
