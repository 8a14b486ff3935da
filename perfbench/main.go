// Command perfbench is rowfuse's end-to-end benchmark. It runs one
// workload — a paper campaign in process, through a campaignd-style
// coordinator, under mitigations, or across a synthetic fleet — for a
// fixed time, checks every iteration's rendered output against an
// in-process reference for the same seed, and prints its metrics as a
// JSON object on the last line of standard output:
//
//	perfbench --workload grid --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics from untraced iterations;
// --trace 1 alternates untraced and traced iterations, reports the
// per-layer metrics of the traced ones and the tracing overhead, and
// writes the spans to .bench_build/out. perfbench/run.sh builds and
// runs it from the repository root; METRICS.md describes the workloads
// and metrics.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"time"

	"rowfuse/internal/core"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of a --trace 0 run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"obs_per_s", "1/s"},
	{"cpu_ms_per_kobs", "ms/kobs"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a --trace 1 run. Metrics of a layer the
// workload does not reach read zero.
var perLayer = []metricDef{
	{"fail_frac", "ratio"},
	{"trace.obs_per_s", "1/s"},
	{"trace.overhead_obs_per_s", "1/s"},
	{"bench.cells", "count"},
	{"core.run_s", "s"},
	{"core.parallel_eff", "ratio"},
	{"core.tail_frac", "ratio"},
	{"mitigation.acts", "count"},
	{"mitigation.trr_refreshes", "count"},
	{"mitigation.acts_per_s", "1/s"},
	{"chipdb.derive_ns_per_chip", "ns"},
	{"core.fleetstats_ms", "ms"},
	{"resultio.ckpt_bytes", "bytes"},
	{"report.render_ms", "ms"},
	{"dispatch.units", "count"},
	{"dispatch.acquire_ms_p50", "ms"},
	{"dispatch.acquire_ms_tail", "ms"},
	{"dispatch.partial_ms_p50", "ms"},
	{"dispatch.partial_ms_tail", "ms"},
	{"dispatch.submit_ms_p50", "ms"},
	{"dispatch.submit_ms_tail", "ms"},
	{"dispatch.acquires", "count"},
	{"dispatch.partials", "count"},
	{"dispatch.submits", "count"},
	{"dispatch.nowork", "count"},
	{"dispatch.retries", "count"},
	{"dispatch.compute_s", "s"},
	{"dispatch.worker_idle_s", "s"},
	{"dispatch.queue_busy_s", "s"},
	{"dispatch.http_s", "s"},
	{"dispatch.report_ms_p50", "ms"},
	{"dispatch.report_ms_tail", "ms"},
	{"dispatch.reports", "count"},
	{"dispatch.http_bytes", "bytes"},
	{"dispatch.http_bytes_per_cell", "bytes/cell"},
	{"resultio.partial_bytes", "bytes"},
	{"resultio.partial_bytes_per_cell", "bytes/cell"},
	{"wal.bytes", "bytes"},
	{"wal.bytes_per_cell", "bytes/cell"},
	{"wal.bytes_per_cell_spread", "ratio"},
}

// layerMetrics collects one value per traced iteration for each
// per-layer metric, reported as their median, and latency samples
// pooled across traced iterations, reported as p50, tail and count. A
// nil *layerMetrics records nothing.
type layerMetrics struct {
	values map[string][]float64
	pools  map[string][]float64
}

func newLayerMetrics() *layerMetrics {
	return &layerMetrics{values: map[string][]float64{}, pools: map[string][]float64{}}
}

func (m *layerMetrics) add(name string, v float64) {
	if m != nil {
		m.values[name] = append(m.values[name], v)
	}
}

// time records the milliseconds since start under name.
func (m *layerMetrics) time(name string, start time.Time) {
	m.add(name, float64(time.Since(start).Nanoseconds())/1e6)
}

func (m *layerMetrics) pool(name string, v []float64) {
	if m != nil {
		m.pools[name] = append(m.pools[name], v...)
	}
}

// iteration is one measured pass over a workload.
type iteration struct {
	wall, cpu time.Duration
	obs       int
	cells     int
	// attempted and failed count coordinator calls (grid-service);
	// cells are added by the caller.
	attempted, failed int
	walBytes          int64
	output            []byte
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	tiny     bool
	corrupt  bool
	outDir   string
}

// result is the JSON object printed on the last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// errIncorrect marks a run whose output differed from the reference.
var errIncorrect = errors.New("output check failed")

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseArgs(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: grid, grid-service, mitigation or fleet")
	fs.Int64Var(&o.seed, "seed", 1, "input seed (picks the bank under test, or the fleet seed)")
	fs.IntVar(&o.seconds, "seconds", 15, "measure for this many seconds")
	traceN := fs.Int("trace", 0, "1 = report per-layer metrics from traced iterations")
	fs.BoolVar(&o.tiny, "tiny", false, "run the workload at self-test scale")
	fs.BoolVar(&o.corrupt, "corrupt-output", false, "corrupt the measured outputs (the self-test's wrong-digest check)")
	fs.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "out"), "directory for spans and goroutine dumps")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 || (*traceN != 0 && *traceN != 1) {
		return o, fmt.Errorf("--seconds must be >= 1 and --trace 0 or 1")
	}
	o.trace = *traceN == 1
	return o, nil
}

// gcPercent is the GC target the benchmark runs at (GOGC). At the
// default 100 the fleet workload, whose live heap is a few MB, collects
// hundreds of times a second, and every collection stops the world. On
// a 2-vCPU VM whose host steals CPU time, the unstolen vCPU then waits
// idle for the stolen one: fleet's idle time tracked the steal tick for
// tick, and its wall time swung by 2x between runs. At 200 it collects
// 2.6x less often, while its peak RSS (about 40 MB) stays as steady as
// at 100; at 400 the peak RSS itself spread by a quarter between runs.
const gcPercent = 200

// hardStop bounds a whole run, so that even a run whose iterations hit
// their deadlines exits well inside three minutes.
const hardStop = 150 * time.Second

func run(args []string, stdout io.Writer) error {
	began := time.Now()
	o, err := parseArgs(args)
	if err != nil {
		return err
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	debug.SetGCPercent(gcPercent)
	w := workloads[o.workload]
	if o.tiny {
		w.deadline = 5 * time.Second
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	workDir, err := os.MkdirTemp(filepath.Dir(o.outDir), "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)

	newConfig := func() (core.StudyConfig, error) {
		cfg, err := w.config(o.seed, o.tiny)
		cfg.Concurrency = nproc
		return cfg, err
	}
	cfg, err := newConfig()
	if err != nil {
		return err
	}
	wantObs := expectedObs(cfg)

	// Set-up — config and Study construction, plus the coordinator on
	// grid-service — is repeated in a batch before every iteration, so
	// its median spans the whole run like the other metrics do.
	var setups []float64
	setupBatch := func() error {
		// A collected heap keeps the previous iteration's garbage from
		// pacing a GC cycle into the batch.
		runtime.GC()
		reps := 201
		if w.service {
			reps = 2
		}
		for i := 0; i < reps; i++ {
			start := time.Now()
			c, err := newConfig()
			if err != nil {
				return err
			}
			if !w.service {
				_ = c.Fingerprint()
				_ = core.NewStudy(c)
				setups = append(setups, time.Since(start).Seconds())
				continue
			}
			coord, err := startCoordinator(c, filepath.Join(workDir, fmt.Sprintf("setup-%d", len(setups))), nproc, nil, 0)
			if err != nil {
				return err
			}
			setups = append(setups, time.Since(start).Seconds())
			coord.stop()
			if err := os.RemoveAll(coord.dir); err != nil {
				return err
			}
		}
		return nil
	}

	// The reference: the same campaign run in process, untimed. It also
	// warms caches and lazy set-up before the timed iterations.
	ctx, cancel := context.WithTimeout(context.Background(), w.deadline)
	ref, err := runLocal(ctx, w, cfg, nil, nil, 0)
	cancel()
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	if ref.obs != wantObs {
		return fmt.Errorf("reference run: %d observations, config asks for %d: %w", ref.obs, wantObs, errIncorrect)
	}
	refDigest := digest(ref.output)

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	lm := newLayerMetrics()
	var obsRate, cpuPerKobs, tracedRate, walPerCell []float64
	attempted, failed := 0, 0
	correct := true
	measureStart := time.Now()
	for i := 0; ; i++ {
		traced := o.trace && i%2 == 1
		enough := i >= 3 || (o.trace && i >= 2)
		if enough && time.Since(measureStart) >= time.Duration(o.seconds)*time.Second {
			break
		}
		left := hardStop - time.Since(began)
		if left <= 0 {
			break
		}
		if err := setupBatch(); err != nil {
			return err
		}
		c, err := newConfig()
		if err != nil {
			return err
		}
		var itLM *layerMetrics
		var itTr *tracer
		var root int64
		var endRoot func()
		if traced {
			itLM, itTr = lm, tr
			root, endRoot = tr.begin(fmt.Sprintf("iteration %d", i), 0)
		}
		// The watchdog dumps every goroutine while a late iteration is
		// still stuck, then cancels it.
		dump := filepath.Join(o.outDir, fmt.Sprintf("goroutines-%s-seed%d-iter%d.txt", o.workload, o.seed, i))
		ctx, cancel := context.WithCancel(context.Background())
		var dumpErr error
		fired := make(chan struct{})
		watchdog := time.AfterFunc(min(w.deadline, left), func() {
			defer close(fired)
			dumpErr = dumpGoroutines(dump)
			cancel()
		})
		var it iteration
		if w.service {
			var setup time.Duration
			it, setup, err = runService(ctx, w, c, filepath.Join(workDir, fmt.Sprintf("iter-%d", i)), itLM, itTr, root)
			if setup > 0 {
				setups = append(setups, setup.Seconds())
			}
		} else {
			it, err = runLocal(ctx, w, c, itLM, itTr, root)
		}
		deadlineHit := !watchdog.Stop()
		if deadlineHit {
			<-fired
		}
		cancel()
		if endRoot != nil {
			endRoot()
		}
		attempted += it.cells + it.attempted
		failed += it.failed
		if deadlineHit {
			// Cancelled at the deadline: the iteration's cells all
			// count as failed, with the goroutine dump as evidence.
			failed += it.cells
			if dumpErr != nil {
				return dumpErr
			}
			fmt.Fprintf(os.Stderr, "perfbench: %s iteration %d passed its deadline (%v); goroutines dumped to %s\n", o.workload, i, err, dump)
			continue
		}
		if err != nil {
			failed += it.cells
			fmt.Fprintf(os.Stderr, "perfbench: %s iteration %d: %v\n", o.workload, i, err)
			break
		}
		if o.corrupt {
			it.output = append([]byte("corrupted "), it.output...)
		}
		if got := digest(it.output); got != refDigest || it.obs != wantObs {
			correct = false
			failed += it.cells
			fmt.Fprintf(os.Stderr, "perfbench: %s iteration %d: digest %s (reference %s), %d observations (want %d)\n",
				o.workload, i, got, refDigest, it.obs, wantObs)
			break
		}
		rate := float64(it.obs) / it.wall.Seconds()
		fmt.Fprintf(os.Stderr, "perfbench: %s iteration %d (traced=%v): %v wall, %v cpu, %.6g obs/s\n",
			o.workload, i, traced, it.wall.Round(time.Millisecond), it.cpu.Round(time.Millisecond), rate)
		if traced {
			tracedRate = append(tracedRate, rate)
		} else {
			obsRate = append(obsRate, rate)
			cpuPerKobs = append(cpuPerKobs, float64(it.cpu.Nanoseconds())/1e6/(float64(it.obs)/1000))
		}
		if w.service {
			walPerCell = append(walPerCell, float64(it.walBytes)/float64(it.cells))
		}
		lm.add("bench.cells", float64(it.cells))
	}
	if attempted == 0 {
		// No iteration started before the hard stop: count the run as
		// one failed operation rather than report an empty one.
		attempted, failed = 1, 1
	}

	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	failFrac := float64(failed) / float64(attempted)
	if o.trace {
		spread := 0.0
		if m := median(walPerCell); m > 0 {
			s := append([]float64(nil), walPerCell...)
			sort.Float64s(s)
			spread = (s[len(s)-1] - s[0]) / m
		}
		values := map[string]float64{
			"fail_frac":                 failFrac,
			"trace.obs_per_s":           median(tracedRate),
			"trace.overhead_obs_per_s":  median(obsRate) - median(tracedRate),
			"wal.bytes_per_cell_spread": spread,
		}
		for name, v := range lm.values {
			values[name] = median(v)
		}
		traced := float64(max(1, len(tracedRate)))
		for _, name := range []string{"acquire", "partial", "submit", "report"} {
			v := lm.pools[name]
			values["dispatch."+name+"_ms_p50"] = median(v)
			values["dispatch."+name+"_ms_tail"] = tail(v)
			values["dispatch."+name+"s"] = float64(len(v)) / traced
		}
		for _, d := range perLayer {
			res.Metrics[d.name] = metricValue{values[d.name], d.unit}
		}
		path := filepath.Join(o.outDir, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
		if err := tr.writeFile(path); err != nil {
			return err
		}
	} else {
		values := map[string]float64{
			"setup_s":         median(setups),
			"obs_per_s":       median(obsRate),
			"cpu_ms_per_kobs": median(cpuPerKobs),
			"peak_rss_mb":     peakRSSMB(),
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricValue{values[d.name], d.unit}
		}
	}

	fmt.Fprintf(stdout, "perfbench %s seed=%d: %d untraced + %d traced iterations of %d observations, GOMAXPROCS=%d, GOGC=%d\n",
		o.workload, o.seed, len(obsRate), len(tracedRate), wantObs, nproc, gcPercent)
	if !o.trace {
		fmt.Fprintf(stdout, "  %-34s %-14.6g %s\n", "fail_frac", failFrac, "ratio")
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(stdout, "  %-34s %-14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return errIncorrect
	}
	return nil
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func dumpGoroutines(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("goroutine").WriteTo(f, 2); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
