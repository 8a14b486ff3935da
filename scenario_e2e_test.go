package rowfuse_test

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"rowfuse/internal/chipdb"
	"rowfuse/internal/core"
	"rowfuse/internal/dispatch"
	_ "rowfuse/internal/mitigation" // registers the "mitigated" scenario engine
	"rowfuse/internal/pattern"
	"rowfuse/internal/report"
	"rowfuse/internal/resultio"
)

// mixedScenarioConfig is a small campaign that exercises every engine
// family on the scenario axis at once: the default analytic scenario,
// the command-level bank simulator, the cycle-accurate bender trace
// interpreter, a TRR-guarded mitigation cell and a temperature
// override. One module, one tAggON, three patterns — 15 cells.
func mixedScenarioConfig(t *testing.T) core.StudyConfig {
	t.Helper()
	mi, err := chipdb.ByID("S0")
	if err != nil {
		t.Fatal(err)
	}
	return core.StudyConfig{
		Modules:       []chipdb.ModuleInfo{mi},
		Sweep:         []time.Duration{7800 * time.Nanosecond},
		RowsPerRegion: 2,
		Dies:          1,
		Runs:          1,
		Opts:          core.RunOpts{Budget: 2 * time.Millisecond},
		Scenarios: []core.Scenario{
			{},
			{ID: "bank", Engine: core.EngineBank},
			{ID: "bender", Engine: core.EngineBenderTrace},
			{ID: "trr4", Engine: core.EngineMitigated, Mitigation: &core.MitigationSpec{TRRCounters: 4, RefreshMult: 1}},
			{ID: "hot", TempC: 70},
		},
	}
}

// checkpointBytes serializes a study snapshot the way shard runs do.
func checkpointBytes(t *testing.T, cfg core.StudyConfig, s *core.Study) []byte {
	t.Helper()
	cp := resultio.NewCheckpoint(cfg.Fingerprint(), core.ShardPlan{}, s.Snapshot())
	var buf bytes.Buffer
	if err := resultio.SaveCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestScenarioMixedShardMergeIdentical shards a mixed-scenario campaign
// the way characterize -shard/-merge does and requires the fused result
// to be byte-identical to the unsharded run: same aggregate snapshot,
// same checkpoint file, same primary-scenario Table 2 rendering.
func TestScenarioMixedShardMergeIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full (small) campaign twice")
	}
	cfg := mixedScenarioConfig(t)
	single := core.NewStudy(cfg)
	if err := single.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	wantSnap := single.Snapshot()
	wantBytes := checkpointBytes(t, cfg, single)

	dir := t.TempDir()
	fingerprint := cfg.Fingerprint()
	const n = 3
	var paths []string
	for i := 0; i < n; i++ {
		shardCfg := mixedScenarioConfig(t)
		shardCfg.Shard = core.ShardPlan{Index: i, Count: n}
		path := filepath.Join(dir, fmt.Sprintf("shard%d.json", i))
		plan := shardCfg.Shard
		shardCfg.Checkpoint = func(cells map[core.CellKey]core.AggregateState) error {
			return resultio.WriteCheckpointFile(path, resultio.NewCheckpoint(fingerprint, plan, cells))
		}
		if err := core.NewStudy(shardCfg).Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}

	merged, err := resultio.MergeCheckpointFiles(fingerprint, paths...)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := merged.CellMap()
	if err != nil {
		t.Fatal(err)
	}
	fused := core.NewStudy(mixedScenarioConfig(t))
	if err := fused.Seed(cells); err != nil {
		t.Fatal(err)
	}
	if got := fused.Snapshot(); !reflect.DeepEqual(got, wantSnap) {
		t.Fatal("sharded+merged snapshot differs from the unsharded run")
	}
	if got := checkpointBytes(t, cfg, fused); !bytes.Equal(got, wantBytes) {
		t.Fatalf("fused checkpoint differs from the unsharded run:\n--- fused ---\n%s\n--- single ---\n%s", got, wantBytes)
	}

	// Every scenario's cells must actually be present and carry
	// observations — a dropped scenario would merge "cleanly" into a
	// smaller grid.
	perScenario := make(map[string]int)
	for key := range cells {
		perScenario[key.Scenario]++
	}
	for _, sc := range cfg.Scenarios {
		if perScenario[sc.ID] != 3 {
			t.Fatalf("scenario %q has %d cells, want 3 (per-scenario coverage: %v)", sc.ID, perScenario[sc.ID], perScenario)
		}
	}
}

// TestScenarioDispatchWorkerKillResume drives a mixed-scenario campaign
// through the dispatch stack: a campaignd-style directory queue whose
// manifest round-trips the scenario axis, one worker that dies holding
// a lease, and live workers that steal the unit back. The fused
// checkpoint must match an unsharded Study.Run byte for byte, and the
// per-scenario summary rendering must be deterministic.
func TestScenarioDispatchWorkerKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a distributed (small) campaign")
	}
	cfg := mixedScenarioConfig(t)
	single := core.NewStudy(cfg)
	if err := single.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	wantBytes := checkpointBytes(t, cfg, single)
	var wantTable bytes.Buffer
	rows, err := single.MitigationSummary()
	if err != nil {
		t.Fatal(err)
	}
	if err := report.MitigationTable(&wantTable, rows); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	const units = 4
	m := dispatch.NewManifest(cfg, units, 400*time.Millisecond)
	if m.GridSize() != 15 {
		t.Fatalf("manifest grid size %d, want 15 (scenario axis lost on the wire?)", m.GridSize())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	created, err := dispatch.CreateWALQueue(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := created.Close(); err != nil {
		t.Fatal(err)
	}

	// The doomed worker leases a unit and crashes: no heartbeat, no
	// submit. Its lease must expire and the unit be re-granted.
	doomed, err := dispatch.OpenWALQueue(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer doomed.Close()
	if _, err := doomed.Acquire("doomed"); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		submitted int
		firstErr  error
	)
	for w := 0; w < 2; w++ {
		name := []string{"alpha", "beta"}[w]
		wq, err := dispatch.OpenWALQueue(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer wq.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, err := dispatch.Work(ctx, wq, dispatch.WorkerOptions{Name: name, Log: t.Logf})
			mu.Lock()
			defer mu.Unlock()
			submitted += n
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}

	coord, err := dispatch.OpenWALQueue(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	st, err := coord.Status()
	if err != nil {
		t.Fatal(err)
	}
	// Re-planning may resize the units, so the live workers must have
	// submitted every unit there is now — the dead worker's included.
	if !st.Drained() || submitted != st.Units {
		t.Fatalf("live workers submitted %d units, want all %d (incl. the dead worker's re-granted unit): %+v", submitted, st.Units, st)
	}
	cp, err := coord.Merged()
	if err != nil {
		t.Fatal(err)
	}
	cells, err := cp.CellMap()
	if err != nil {
		t.Fatal(err)
	}
	fused := core.NewStudy(mixedScenarioConfig(t))
	if err := fused.Seed(cells); err != nil {
		t.Fatal(err)
	}
	if got := checkpointBytes(t, cfg, fused); !bytes.Equal(got, wantBytes) {
		t.Fatal("dispatched campaign checkpoint differs from the unsharded run")
	}
	var gotTable bytes.Buffer
	rows, err = fused.MitigationSummary()
	if err != nil {
		t.Fatal(err)
	}
	if err := report.MitigationTable(&gotTable, rows); err != nil {
		t.Fatal(err)
	}
	if gotTable.String() != wantTable.String() {
		t.Fatalf("dispatched scenario table differs:\n--- dispatched ---\n%s\n--- single ---\n%s", gotTable.String(), wantTable.String())
	}
}

// TestScenarioMitigationCampaignReports runs a tiny mitigation-axis
// campaign end to end and renders the mitigation survival table — the
// -exp mitigation pipeline without the CLI around it. The baseline
// scenario must flip at least as often as every defended scenario.
func TestScenarioMitigationCampaignReports(t *testing.T) {
	if testing.Short() {
		t.Skip("hammers a simulated bank per scenario")
	}
	cfg, err := core.NewCampaignSpecBuilder(
		core.WithExp("mitigation"),
		core.WithModule("S0"),
		core.WithScale(2, 1, 1),
		core.WithOperatingPoint(50, 2*time.Millisecond),
	).StudyConfig()
	if err != nil {
		t.Fatal(err)
	}
	// Narrow to one mark and one pattern so six scenarios stay quick.
	cfg.Sweep = cfg.Sweep[:1]
	cfg.Patterns = []pattern.Kind{pattern.DoubleSided}
	s := core.NewStudy(cfg)
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	sum, err := s.MitigationSummary()
	if err != nil {
		t.Fatal(err)
	}
	if len(sum) != len(core.MitigationScenarios()) {
		t.Fatalf("summary has %d scenarios, want %d", len(sum), len(core.MitigationScenarios()))
	}
	baseline := sum[0]
	if baseline.Scenario.ID != "baseline" {
		t.Fatalf("first summary row is %q, want the baseline", baseline.Scenario.ID)
	}
	for _, row := range sum[1:] {
		if row.Modules[0].FlippedObs > baseline.Modules[0].FlippedObs {
			t.Errorf("scenario %q flips more than the unprotected baseline (%d > %d)",
				row.Scenario.ID, row.Modules[0].FlippedObs, baseline.Modules[0].FlippedObs)
		}
	}
	var buf bytes.Buffer
	if err := report.MitigationTable(&buf, sum); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty mitigation table")
	}

	// Rendering must be deterministic across re-runs of the same config.
	s2 := core.NewStudy(cfg)
	if err := s2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	sum2, err := s2.MitigationSummary()
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := report.MitigationTable(&buf2, sum2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatalf("mitigation table not deterministic:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", buf.String(), buf2.String())
	}
}

// TestScenarioCrossoverExtractor runs a default-scenario sweep and
// checks the crossover extractor agrees with the per-cell winners.
func TestScenarioCrossoverExtractor(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a multi-point sweep")
	}
	cfg, err := core.NewCampaignSpecBuilder(
		core.WithExp("crossover"),
		core.WithModule("S0"),
		core.WithScale(4, 1, 1),
	).StudyConfig()
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewStudy(cfg)
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	mods, err := s.CrossoverSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(mods) != 1 || len(mods[0].Cells) != len(cfg.Sweep) {
		t.Fatalf("sweep shape: %d modules, %d cells", len(mods), len(mods[0].Cells))
	}
	for _, c := range mods[0].Cells {
		if c.Winner == 0 {
			continue
		}
		for k, ms := range c.TimesMs {
			if ms < c.TimesMs[c.Winner] {
				t.Fatalf("at %v, %v (%.2fms) beats declared winner %v (%.2fms)",
					c.AggOn, k, ms, c.Winner, c.TimesMs[c.Winner])
			}
		}
	}
	var buf bytes.Buffer
	if err := report.CrossoverTable(&buf, mods); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty crossover table")
	}
}
