package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"rowfuse/internal/chipdb"
	"rowfuse/internal/core"
	"rowfuse/internal/device"
	"rowfuse/internal/mitigation"
	"rowfuse/internal/pattern"
	"rowfuse/internal/report"
	"rowfuse/internal/resultio"
)

// Campaign scale of each workload. METRICS.md records the same values
// with the reason each workload was chosen.
const (
	gridRows        = 200             // grid: victim rows per bank region
	serviceRows     = 8               // grid-service: victim rows per bank region
	serviceUnits    = 8               // campaignd's default -units
	serviceLeaseTTL = 2 * time.Minute // campaignd's default -ttl
	fleetChips      = 4096            // fleet: synthetic chips
)

// workload is one campaign the benchmark runs.
type workload struct {
	// service routes the campaign through a campaignd-style coordinator
	// instead of running it in process.
	service bool
	// deadline bounds one iteration; a run past it is cancelled and its
	// cells count as failed.
	deadline time.Duration
	// config builds the campaign for a seed; tiny shrinks it for the
	// self-test.
	config func(seed int64, tiny bool) (core.StudyConfig, error)
	// render produces the output the run is checked by, timing its
	// layers into lm.
	render func(st *core.Study, lm *layerMetrics) ([]byte, error)
}

var workloads = map[string]workload{
	"grid": {
		deadline: 30 * time.Second,
		config: func(seed int64, tiny bool) (core.StudyConfig, error) {
			return gridConfig(seed, tiny, gridRows)
		},
		render: renderGrid,
	},
	"grid-service": {
		service: true, deadline: 30 * time.Second,
		config: func(seed int64, tiny bool) (core.StudyConfig, error) {
			return gridConfig(seed, tiny, serviceRows)
		},
		render: renderGrid,
	},
	"mitigation": {
		deadline: 60 * time.Second,
		config:   mitigationConfig,
		render:   renderMitigation,
	},
	"fleet": {
		deadline: 30 * time.Second,
		config:   fleetConfig,
		render:   renderFleet,
	},
}

// bankOf maps the seed argument onto StudyConfig.Bank, the bank under
// test (DDR4 has 16).
func bankOf(seed int64) int { return int(((seed % 16) + 16) % 16) }

// gridConfig is the -exp all grid: 14 modules x 3 patterns x 14 tAggON
// points, all dies, 3 runs.
func gridConfig(seed int64, tiny bool, rows int) (core.StudyConfig, error) {
	opts := []core.CampaignOption{core.WithExp("all"), core.WithScale(rows, 0, 3)}
	if tiny {
		opts = []core.CampaignOption{core.WithExp("all"), core.WithModule("S0"), core.WithScale(16, 1, 1)}
	}
	cfg, err := core.NewCampaignSpecBuilder(opts...).StudyConfig()
	if err != nil {
		return cfg, err
	}
	cfg.Bank = bankOf(seed)
	return cfg, nil
}

// mitigationConfig is -exp mitigation on S0: the combined pattern at
// the Table 2 marks against the six standard mitigation scenarios,
// 1 row per region, 1 run, the paper's 60 ms budget.
func mitigationConfig(seed int64, tiny bool) (core.StudyConfig, error) {
	cfg, err := core.NewCampaignSpecBuilder(
		core.WithExp("mitigation"), core.WithModule("S0"), core.WithScale(1, 1, 1),
		core.WithOperatingPoint(50, core.DefaultBudget),
	).StudyConfig()
	if err != nil {
		return cfg, err
	}
	cfg.Patterns = []pattern.Kind{pattern.Combined}
	cfg.Bank = bankOf(seed)
	if tiny {
		cfg.Sweep = cfg.Sweep[2:]
		cfg.Scenarios = cfg.Scenarios[:2]
	}
	return cfg, nil
}

// fleetConfig is the -exp fleet population sweep.
func fleetConfig(seed int64, tiny bool) (core.StudyConfig, error) {
	chips := fleetChips
	if tiny {
		chips = 48
	}
	cfg, err := core.NewCampaignSpecBuilder(core.WithExp("fleet"), core.WithChips(chips)).StudyConfig()
	if err != nil {
		return cfg, err
	}
	cfg.Fleet.Seed = seed
	if tiny {
		cfg.Fleet.ChipsPerCell = 16
	}
	return cfg, nil
}

// renderGrid renders Table 2 and Fig. 4.
func renderGrid(st *core.Study, lm *layerMetrics) ([]byte, error) {
	defer lm.time("report.render_ms", time.Now())
	var buf bytes.Buffer
	rows, err := st.Table2()
	if err != nil {
		return nil, err
	}
	if err := report.Table2(&buf, rows); err != nil {
		return nil, err
	}
	fig4, err := st.Fig4()
	if err != nil {
		return nil, err
	}
	if err := report.Fig4(&buf, fig4); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// renderMitigation renders the mitigation survival table.
func renderMitigation(st *core.Study, lm *layerMetrics) ([]byte, error) {
	defer lm.time("report.render_ms", time.Now())
	rows, err := st.MitigationSummary()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := report.MitigationTable(&buf, rows); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// renderFleet renders the fleet percentile table.
func renderFleet(st *core.Study, lm *layerMetrics) ([]byte, error) {
	snap := st.Snapshot()
	start := time.Now()
	stats, err := core.FleetStats(snap)
	if err != nil {
		return nil, err
	}
	lm.time("core.fleetstats_ms", start)
	defer lm.time("report.render_ms", time.Now())
	var buf bytes.Buffer
	if err := report.FleetDistribution(&buf, stats, len(st.Cells())); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// expectedObs counts the observations the config asks for: victim rows
// x dies x runs per cell, or chips x rows per chip x runs per fleet
// cell. It is computed from the config alone, independently of the
// results it is checked against.
func expectedObs(cfg core.StudyConfig) int {
	cfg = core.NewStudy(cfg).Config()
	perPoint := len(cfg.Patterns) * len(cfg.Sweep) * max(1, len(cfg.Scenarios))
	if f := cfg.Fleet; f != nil {
		return f.Chips * f.RowsPerChip * cfg.Runs * perPoint
	}
	total := 0
	for _, mi := range cfg.Modules {
		numRows, _ := mi.Geometry()
		dies := mi.NumChips
		if cfg.Dies > 0 && cfg.Dies < dies {
			dies = cfg.Dies
		}
		total += len(core.PaperRows(numRows, cfg.RowsPerRegion)) * dies * cfg.Runs * perPoint
	}
	return total
}

// countObs sums the observations folded into the study's cells.
func countObs(st *core.Study) int {
	total := 0
	for _, key := range st.Cells() {
		if r, ok := st.ResultCell(key); ok {
			total += r.Observations()
		}
	}
	return total
}

// runLocal runs one in-process iteration: Study.Run, then rendering.
// Layer metrics go to lm; tr records spans under root (both may be
// inert for an untraced iteration).
func runLocal(ctx context.Context, w workload, cfg core.StudyConfig, lm *layerMetrics, tr *tracer, root int64) (iteration, error) {
	nproc := cfg.Concurrency
	// tailStart marks the first completion that leaves fewer cells than
	// workers; Run's return orders the write before the read below.
	var tailStart time.Time
	var tailOnce sync.Once
	if lm != nil {
		cfg.Progress = func(done, total int) {
			if total-done < nproc {
				tailOnce.Do(func() { tailStart = time.Now() })
			}
		}
	}
	st := core.NewStudy(cfg)
	runStart := time.Now()
	cpu0 := cpuTime()
	_, end := tr.begin("core.Study.Run", root)
	err := st.Run(ctx)
	end()
	runEnd := time.Now()
	cpu1 := cpuTime()
	if err != nil {
		return iteration{cells: len(st.Cells())}, err
	}
	_, end = tr.begin("report.render", root)
	out, err := w.render(st, lm)
	end()
	if err != nil {
		return iteration{cells: len(st.Cells())}, err
	}
	wall, cpu := time.Since(runStart), cpuTime()-cpu0
	it := iteration{
		wall:   wall,
		cpu:    cpu,
		obs:    countObs(st),
		cells:  len(st.Cells()),
		output: out,
	}
	if lm != nil {
		run := runEnd.Sub(runStart)
		lm.add("core.run_s", run.Seconds())
		lm.add("core.parallel_eff", (cpu1-cpu0).Seconds()/(run.Seconds()*float64(nproc)))
		if !tailStart.IsZero() {
			lm.add("core.tail_frac", runEnd.Sub(tailStart).Seconds()/run.Seconds())
		}
		if err := measureAfter(st, lm, tr, root); err != nil {
			return it, err
		}
	}
	return it, nil
}

// measureAfter takes the traced iteration's measurements that need
// extra work, outside the timed window: the final checkpoint's size,
// the population model's per-chip cost, and the mitigation counters.
func measureAfter(st *core.Study, lm *layerMetrics, tr *tracer, root int64) error {
	cfg := st.Config()
	var buf bytes.Buffer
	if err := resultio.SaveCheckpoint(&buf, resultio.NewCheckpoint(cfg.Fingerprint(), core.ShardPlan{}, st.Snapshot())); err != nil {
		return err
	}
	lm.add("resultio.ckpt_bytes", float64(buf.Len()))
	if f := cfg.Fleet; f != nil {
		_, end := tr.begin("chipdb.Derive", root)
		start := time.Now()
		model := f.Population()
		for i := 0; i < f.Chips; i++ {
			_ = model.Derive(i)
		}
		lm.add("chipdb.derive_ns_per_chip", float64(time.Since(start).Nanoseconds())/float64(f.Chips))
		end()
	}
	if len(cfg.Scenarios) > 0 && cfg.Scenarios[0].Engine == core.EngineMitigated {
		_, end := tr.begin("mitigation.Engine", root)
		defer end()
		return driveMitigation(cfg, lm)
	}
	return nil
}

// driveMitigation replays the mitigation workload's cells through
// mitigation.NewEngine — one engine per (cell, die, run), as the
// scenario engine factory builds them — and counts the bank's
// activations and the guard's targeted refreshes.
func driveMitigation(cfg core.StudyConfig, lm *layerMetrics) error {
	mods := make(map[string]chipdb.ModuleInfo)
	for _, mi := range cfg.Modules {
		mods[mi.ID] = mi
	}
	scens := make(map[string]core.Scenario)
	for _, sc := range cfg.Scenarios {
		scens[sc.ID] = sc
	}
	var acts, trr int64
	start := time.Now()
	for _, key := range core.NewStudy(cfg).Cells() {
		mi, sc := mods[key.Module], scens[key.Scenario]
		spec, err := pattern.New(key.Kind, key.AggOn, cfg.Timings)
		if err != nil {
			return err
		}
		numRows, rowBytes := mi.Geometry()
		dies := mi.NumChips
		if cfg.Dies > 0 && cfg.Dies < dies {
			dies = cfg.Dies
		}
		ms := sc.Mitigation
		for die := 0; die < dies; die++ {
			for run := 0; run < cfg.Runs; run++ {
				bank, err := device.NewBank(device.BankConfig{
					Profile:  device.DieProfile(mi.Profile(cfg.Params), die),
					Params:   cfg.Params,
					Index:    cfg.Bank,
					NumRows:  numRows,
					RowBytes: rowBytes,
					RunSeed:  int64(run),
				})
				if err != nil {
					return err
				}
				ecfg := mitigation.EngineConfig{Bank: bank, ECC: ms.ECC}
				if ms.TRRCounters > 0 {
					if ecfg.Guard, err = mitigation.NewGuard(mitigation.GuardConfig{
						Bank:          bank,
						Tracker:       mitigation.NewMisraGries(ms.TRRCounters),
						VictimsPerRef: ms.VictimsPerRef,
					}); err != nil {
						return err
					}
				}
				if ms.RefreshMult > 0 {
					ecfg.RefInterval = time.Duration(float64(cfg.Timings.TREFI) / ms.RefreshMult)
				}
				eng, err := mitigation.NewEngine(ecfg)
				if err != nil {
					return err
				}
				opts := cfg.Opts
				opts.Run = int64(run)
				for _, victim := range core.PaperRows(numRows, cfg.RowsPerRegion) {
					if _, err := eng.CharacterizeRow(victim, spec, opts); err != nil {
						return fmt.Errorf("mitigation drive %v die %d: %w", key, die, err)
					}
				}
				act, _, _ := bank.Counters()
				acts += act
				trr += eng.TRRRefreshes()
			}
		}
	}
	lm.add("mitigation.acts", float64(acts))
	lm.add("mitigation.trr_refreshes", float64(trr))
	lm.add("mitigation.acts_per_s", float64(acts)/time.Since(start).Seconds())
	return nil
}
