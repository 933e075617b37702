package experiment

import (
	"testing"

	"github.com/ghost-installer/gia/internal/arena"
	"github.com/ghost-installer/gia/internal/attack"
	"github.com/ghost-installer/gia/internal/installer"
	"github.com/ghost-installer/gia/internal/race"
)

// TestAITAllocBudget pins the allocation cost of one complete AIT hijack
// schedule on a warm arena device — the unit of work every chaos sweep and
// study repeats thousands of times. The budget is deliberately loose
// against run-to-run jitter (map growth thresholds, pooled capacities) but
// tight enough to catch a regression that reintroduces per-schedule
// device rebuilding or payload copying.
func TestAITAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	a := arena.New(ScenarioDeviceProfile(0))
	prof := installer.Amazon()
	seed := int64(1)
	oneSchedule := func() {
		dev, err := a.Acquire(seed)
		if err != nil {
			t.Fatalf("acquire: %v", err)
		}
		s, err := NewScenarioPayloadOn(dev, prof, nil)
		if err != nil {
			t.Fatalf("scenario: %v", err)
		}
		atk := attack.NewTOCTOU(s.Mal, attack.ConfigForStore(prof, attack.StrategyFileObserver), s.Target)
		if err := atk.Launch(); err != nil {
			t.Fatalf("launch: %v", err)
		}
		res := s.RunAIT()
		atk.Stop()
		a.Release(dev)
		if !res.Hijacked {
			t.Fatalf("hijack missed under seed %d: %v", seed, res.Err)
		}
	}
	// Warm up: first acquisition boots the device, and the process-wide
	// memo caches (signing keys, repackaged APKs, market listings) fill.
	oneSchedule()
	perAIT := testing.AllocsPerRun(100, func() {
		seed++
		oneSchedule()
	})
	// Measured ~76 objects/schedule after the residual-allocator pass
	// (path-string reuse, node slab, closure hoisting, lazy rng seeding);
	// ~2.5x headroom.
	const budget = 200.0
	if perAIT > budget {
		t.Fatalf("one AIT schedule allocates %.0f objects, budget %.0f", perAIT, budget)
	}
	t.Logf("per-AIT allocations: %.0f (budget %.0f)", perAIT, budget)
}
