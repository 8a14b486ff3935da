package dispatch_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"rowfuse/internal/chipdb"
	"rowfuse/internal/core"
	"rowfuse/internal/dispatch"
	"rowfuse/internal/pattern"
	"rowfuse/internal/timing"
)

// heteroConfig is a campaign whose cells differ sharply in cost: S0
// characterizes 8 dies per cell, H1 is capped at... nothing — Dies: 0
// keeps every die, so S0 cells carry 8 dies and H1 cells 4.
func heteroConfig(t *testing.T) core.StudyConfig {
	t.Helper()
	cfg := testConfig(t)
	cfg.Dies = 0
	return cfg
}

// drainWithCosts drains q, submitting synthetic checkpoints whose
// reported elapsed time is proportional to the unit's true per-cell
// weight (dies), as a real campaign's would be. Returns the per-lease
// cell counts in grant order.
func drainWithCosts(t *testing.T, q dispatch.Queue, m dispatch.Manifest, cfg core.StudyConfig) [][]int {
	t.Helper()
	grid := core.NewStudy(cfg).Cells()
	byID := make(map[string]chipdb.ModuleInfo)
	for _, mi := range cfg.Modules {
		byID[mi.ID] = mi
	}
	weight := func(idx int) int {
		mi := byID[grid[idx].Module]
		dies := mi.NumChips
		if cfg.Dies > 0 && cfg.Dies < dies {
			dies = cfg.Dies
		}
		return dies
	}
	var leases [][]int
	for {
		l, err := q.Acquire("synthetic")
		if errors.Is(err, dispatch.ErrDrained) {
			return leases
		}
		if err != nil {
			t.Fatal(err)
		}
		leases = append(leases, l.Cells)
		elapsed := time.Duration(0)
		for _, idx := range l.Cells {
			elapsed += time.Duration(weight(idx)) * 10 * time.Millisecond
		}
		if err := q.Submit(l, checkpointForCells(t, m, l.Cells), elapsed); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMemQueueReplanEqualizesUnitCosts drives the adaptive re-planner:
// once submissions report per-unit cost, the still-pending units must
// be re-partitioned so their expected costs equalize — units rich in
// fat 8-die cells hold fewer cells than units of cheap 4-die cells —
// and the re-planned campaign must still drain to exactly the full
// grid with no cell lost or duplicated.
func TestMemQueueReplanEqualizesUnitCosts(t *testing.T) {
	cfg := heteroConfig(t)
	m := dispatch.NewManifest(cfg, 4, time.Minute)
	q, err := dispatch.NewMemQueue(m)
	if err != nil {
		t.Fatal(err)
	}

	leases := drainWithCosts(t, q, m, cfg)

	// Exactly-once coverage despite re-planned boundaries.
	seen := make(map[int]int)
	for _, cells := range leases {
		for _, idx := range cells {
			seen[idx]++
		}
	}
	if len(seen) != 18 {
		t.Fatalf("drained leases covered %d distinct cells, want 18", len(seen))
	}
	for idx, n := range seen {
		if n != 1 {
			t.Fatalf("cell %d granted %d times", idx, n)
		}
	}
	cp, err := q.Merged()
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Cells) != 18 {
		t.Fatalf("merged checkpoint has %d cells, want 18", len(cp.Cells))
	}

	// After the first cost observation the re-planner owns the pending
	// boundaries; the remaining grants must be cost-balanced: no later
	// unit may cost more than ~2x the cheapest (the static partition's
	// spread is what re-planning removes).
	grid := core.NewStudy(cfg).Cells()
	cost := func(cells []int) (total float64) {
		for _, idx := range cells {
			if strings.HasPrefix(grid[idx].Module, "S") {
				total += 8
			} else {
				total += 4
			}
		}
		return total
	}
	var lo, hi float64
	for i, cells := range leases[1:] { // skip the pre-observation grant
		c := cost(cells)
		if i == 0 || c < lo {
			lo = c
		}
		if i == 0 || c > hi {
			hi = c
		}
	}
	if hi > 2.2*lo {
		t.Errorf("post-replan unit costs spread %vx (lo %v hi %v); expected cost equalization", hi/lo, lo, hi)
	}
}

// TestMemQueueWithoutReplanningKeepsStaticUnits pins the opt-out: the
// manifest's ShardPlan partition must survive cost observations.
func TestMemQueueWithoutReplanningKeepsStaticUnits(t *testing.T) {
	cfg := heteroConfig(t)
	m := dispatch.NewManifest(cfg, 4, time.Minute)
	q, err := dispatch.NewMemQueue(m, dispatch.WithoutReplanning())
	if err != nil {
		t.Fatal(err)
	}
	leases := drainWithCosts(t, q, m, cfg)
	if len(leases) != m.Units {
		t.Fatalf("static queue granted %d leases, want %d", len(leases), m.Units)
	}
	for _, cells := range leases {
		// Every lease must match a static plan unit exactly.
		matched := false
		for unit := 0; unit < m.Units; unit++ {
			want := m.UnitCells(unit)
			if len(want) != len(cells) {
				continue
			}
			same := true
			for i := range want {
				if want[i] != cells[i] {
					same = false
					break
				}
			}
			if same {
				matched = true
				break
			}
		}
		if !matched {
			t.Fatalf("lease cells %v match no static unit", cells)
		}
	}
}

// TestRenderPartialDegenerateGrids guards the live-report path against
// grids the strict renderers never see: a campaign restricted to one
// pattern family, and a zero-cell grid from an explicitly empty module
// list. Both must render cleanly — no panic, no NaN.
func TestRenderPartialDegenerateGrids(t *testing.T) {
	// Single-pattern campaign: Fig 4's other two families have no
	// series at all.
	cfg := testConfig(t)
	cfg.Patterns = []pattern.Kind{pattern.SingleSided}
	m := dispatch.NewManifest(cfg, 2, time.Minute)
	var buf bytes.Buffer
	if err := dispatch.RenderPartial(&buf, m, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "partial: 0 of 6 cells (0.0%)") {
		t.Errorf("single-pattern report lacks coverage annotation:\n%s", out)
	}
	if strings.Contains(out, "NaN") {
		t.Errorf("single-pattern report contains NaN:\n%s", out)
	}

	// Zero-cell grid: a manifest whose campaign spec has an explicitly
	// empty module list (e.g. hand-edited; an empty non-nil list
	// survives the spec round trip where nil would pick up defaults).
	empty := cfg
	empty.Modules = []chipdb.ModuleInfo{}
	empty.Sweep = []time.Duration{timing.TRAS}
	spec := dispatch.NewCampaignSpec(empty)
	zc := dispatch.Manifest{
		Version:     dispatch.ManifestVersion,
		Fingerprint: empty.Fingerprint(),
		Units:       1,
		LeaseTTLMs:  60000,
		Campaign:    spec,
	}
	if err := zc.Validate(); err != nil {
		t.Fatalf("zero-cell manifest rejected: %v", err)
	}
	buf.Reset()
	if err := dispatch.RenderPartial(&buf, zc, nil); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	if !strings.Contains(out, "empty grid") {
		t.Errorf("zero-cell report lacks the empty-grid tag:\n%s", out)
	}
	if strings.Contains(out, "NaN") || strings.Contains(out, "complete") {
		t.Errorf("zero-cell report renders NaN or claims completeness:\n%s", out)
	}
}
