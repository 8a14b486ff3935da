package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rowfuse/internal/core"
	"rowfuse/internal/dispatch"
	"rowfuse/internal/resultio"
)

// opRec times the Queue calls one side of the coordinator protocol
// makes: the worker's calls through the HTTP client, or the
// coordinator's calls into its WAL-backed queue. It also counts the
// calls and classifies their errors.
type opRec struct {
	side   string
	tr     *tracer
	parent int64

	mu      sync.Mutex
	dur     map[string][]float64 // seconds per call, by method
	ops     int
	failed  int
	nowork  int
	retries int
}

func newOpRec(side string, tr *tracer, parent int64) *opRec {
	return &opRec{side: side, tr: tr, parent: parent, dur: make(map[string][]float64)}
}

// begin starts timing one call; the returned func ends it with the
// call's error.
func (r *opRec) begin(op string) func(error) {
	_, end := r.tr.begin(r.side+"."+op, r.parent)
	start := time.Now()
	return func(err error) {
		d := time.Since(start).Seconds()
		end()
		r.mu.Lock()
		defer r.mu.Unlock()
		r.dur[op] = append(r.dur[op], d)
		r.ops++
		switch {
		case err == nil, errors.Is(err, dispatch.ErrDrained):
		case errors.Is(err, dispatch.ErrNoWork):
			r.nowork++
		case errors.Is(err, dispatch.ErrLeaseLost), errors.Is(err, dispatch.ErrDuplicateSubmit):
			r.failed++
		default:
			// Anything else is a fault the worker retries.
			r.failed++
			r.retries++
		}
	}
}

// total returns the summed seconds of the named methods (all methods
// when none are named).
func (r *opRec) total(ops ...string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := 0.0
	for op, d := range r.dur {
		if len(ops) == 0 || contains(ops, op) {
			t += sum(d)
		}
	}
	return t
}

func (r *opRec) samples(op string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.dur[op]...)
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// workerCalls are the Queue methods the worker loop drives; each one
// reaches the coordinator's queue through one HTTP request.
var workerCalls = []string{"Acquire", "Heartbeat", "Submit", "SavePartial", "LoadPartial", "Fail"}

// timedQueue decorates a dispatch.Queue, timing every call into rec.
type timedQueue struct {
	q   dispatch.Queue
	rec *opRec
}

func (t timedQueue) Manifest() (dispatch.Manifest, error) { return t.q.Manifest() }

func (t timedQueue) Acquire(worker string) (dispatch.Lease, error) {
	done := t.rec.begin("Acquire")
	l, err := t.q.Acquire(worker)
	done(err)
	return l, err
}

func (t timedQueue) Heartbeat(l dispatch.Lease) error {
	done := t.rec.begin("Heartbeat")
	err := t.q.Heartbeat(l)
	done(err)
	return err
}

func (t timedQueue) Submit(l dispatch.Lease, cp *resultio.Checkpoint, elapsed time.Duration) error {
	done := t.rec.begin("Submit")
	err := t.q.Submit(l, cp, elapsed)
	done(err)
	return err
}

func (t timedQueue) SavePartial(l dispatch.Lease, cp *resultio.Checkpoint) error {
	done := t.rec.begin("SavePartial")
	err := t.q.SavePartial(l, cp)
	done(err)
	return err
}

func (t timedQueue) LoadPartial(l dispatch.Lease) (*resultio.Checkpoint, error) {
	done := t.rec.begin("LoadPartial")
	cp, err := t.q.LoadPartial(l)
	done(err)
	return cp, err
}

func (t timedQueue) Fail(l dispatch.Lease, reason string) error {
	done := t.rec.begin("Fail")
	err := t.q.Fail(l, reason)
	done(err)
	return err
}

func (t timedQueue) Quarantined() ([]dispatch.QuarantineEntry, error) {
	done := t.rec.begin("Quarantined")
	e, err := t.q.Quarantined()
	done(err)
	return e, err
}

func (t timedQueue) Requeue(unit int) error {
	done := t.rec.begin("Requeue")
	err := t.q.Requeue(unit)
	done(err)
	return err
}

func (t timedQueue) Drop(unit int) error {
	done := t.rec.begin("Drop")
	err := t.q.Drop(unit)
	done(err)
	return err
}

func (t timedQueue) Status() (dispatch.Status, error) {
	done := t.rec.begin("Status")
	st, err := t.q.Status()
	done(err)
	return st, err
}

func (t timedQueue) Merged() (*resultio.Checkpoint, error) {
	done := t.rec.begin("Merged")
	cp, err := t.q.Merged()
	done(err)
	return cp, err
}

// meter is the http.RoundTripper handed to dispatch.Dial: it counts
// request and response body bytes, and the request bodies of
// POST /v1/partial (the intra-unit checkpoints) separately.
type meter struct {
	base         http.RoundTripper
	tr           *tracer
	parent       int64
	bytes        atomic.Int64
	partialBytes atomic.Int64
}

func (m *meter) RoundTrip(req *http.Request) (*http.Response, error) {
	_, end := m.tr.begin("http "+req.Method+" "+req.URL.Path, m.parent)
	defer end()
	if n := req.ContentLength; n > 0 {
		m.bytes.Add(n)
		if strings.HasSuffix(req.URL.Path, "/partial") {
			m.partialBytes.Add(n)
		}
	}
	resp, err := m.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countedBody{ReadCloser: resp.Body, n: &m.bytes}
	return resp, nil
}

type countedBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// coordinator is one campaignd-style coordinator on loopback: a
// WALQueue behind dispatch.NewHandler, and the worker's and the
// follower's clients dialed to it.
type coordinator struct {
	dir      string
	queue    *dispatch.WALQueue
	srv      *http.Server
	served   chan struct{}
	tport    *http.Transport
	worker   *dispatch.Client
	follower *dispatch.Client
	wmeter   *meter
	coordRec *opRec
}

// startCoordinator is the grid-service set-up: manifest, WAL queue,
// listener, HTTP server and both dials. Layer recorders and spans go
// under root of tr.
func startCoordinator(cfg core.StudyConfig, dir string, nproc int, tr *tracer, root int64) (*coordinator, error) {
	m := dispatch.NewManifest(cfg, serviceUnits, serviceLeaseTTL)
	q, err := dispatch.CreateWALQueue(dir, m)
	if err != nil {
		return nil, err
	}
	c := &coordinator{dir: dir, queue: q, coordRec: newOpRec("coordinator", tr, root), served: make(chan struct{})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		q.Close()
		return nil, err
	}
	c.srv = &http.Server{Handler: dispatch.NewHandler(timedQueue{q: q, rec: c.coordRec})}
	go func() {
		defer close(c.served)
		_ = c.srv.Serve(ln) // returns ErrServerClosed once stop shuts it down
	}()
	// One transport caps the process at nproc connections, shared by
	// the worker and the follower.
	c.tport = &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}
	c.wmeter = &meter{base: c.tport, tr: tr, parent: root}
	base := "http://" + ln.Addr().String()
	if c.worker, err = dispatch.Dial(base, &http.Client{Transport: c.wmeter, Timeout: time.Minute}); err != nil {
		c.stop()
		return nil, err
	}
	if c.follower, err = dispatch.Dial(base, &http.Client{Transport: c.tport, Timeout: time.Minute}); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

// stop shuts the server down, waits for it, and closes the queue.
func (c *coordinator) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.srv.Shutdown(ctx); err != nil {
		_ = c.srv.Close()
	}
	<-c.served
	c.tport.CloseIdleConnections()
	_ = c.queue.Close() // the state directory is measured and removed next
}

// runService runs one grid-service iteration against a fresh
// coordinator: one dispatch.Work worker at study concurrency nproc,
// plus a follower polling /v1/report once a second. The drained
// campaign's merged checkpoint is rendered exactly as an in-process
// run would render it.
func runService(ctx context.Context, w workload, cfg core.StudyConfig, dir string, lm *layerMetrics, tr *tracer, root int64) (it iteration, setup time.Duration, err error) {
	nproc := cfg.Concurrency
	setupStart := time.Now()
	_, end := tr.begin("setup", root)
	c, err := startCoordinator(cfg, dir, nproc, tr, root)
	end()
	if err != nil {
		return it, 0, err
	}
	setup = time.Since(setupStart)
	defer func() {
		c.stop()
		if rerr := os.RemoveAll(dir); err == nil && rerr != nil {
			err = rerr
		}
	}()
	it.cells = len(core.NewStudy(cfg).Cells())
	workerRec := newOpRec("worker", tr, root)
	wq := timedQueue{q: c.worker, rec: workerRec}

	// Compute, measured by the RunShard wrapper. Progress inside a
	// unit is read off its intra-unit checkpoints to find the tail:
	// the time after fewer than nproc of the unit's cells remain.
	var mu sync.Mutex
	var compute, computeCPU, tailTime time.Duration
	runShard := func(ctx context.Context, m dispatch.Manifest, u dispatch.UnitWork) (*resultio.Checkpoint, dispatch.UnitRunStats, error) {
		_, end := tr.begin("dispatch.RunShard", root)
		defer end()
		cells := len(u.Cells)
		if cells == 0 {
			cells = len(m.UnitCells(u.Unit))
		}
		var tailStart time.Time
		if save := u.SavePartial; save != nil {
			u.SavePartial = func(cp *resultio.Checkpoint) error {
				if cells-len(cp.Cells) < nproc && tailStart.IsZero() {
					tailStart = time.Now()
				}
				return save(cp)
			}
		}
		start, cpu0 := time.Now(), cpuTime()
		cp, stats, err := dispatch.RunUnitWork(ctx, m, u, nproc)
		stop := time.Now()
		mu.Lock()
		compute += stop.Sub(start)
		computeCPU += cpuTime() - cpu0
		if !tailStart.IsZero() {
			tailTime += stop.Sub(tailStart)
		}
		mu.Unlock()
		return cp, stats, err
	}

	followRec := newOpRec("follower", tr, root)
	stopFollow := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-stopFollow:
				return
			case <-t.C:
				done := followRec.begin("Report")
				_, err := c.follower.Report()
				done(err)
			}
		}
	}()

	start, cpu0 := time.Now(), cpuTime()
	_, werr := dispatch.Work(ctx, wq, dispatch.WorkerOptions{
		Name:        "perfbench-worker",
		Concurrency: nproc,
		RunShard:    runShard,
	})
	workWall := time.Since(start)
	close(stopFollow)
	wg.Wait()
	// Every coordinator call is an operation: the worker's, the
	// follower's, and the final fetch of the merged checkpoint.
	addOps := func() {
		for _, r := range []*opRec{workerRec, followRec} {
			r.mu.Lock()
			it.attempted += r.ops
			it.failed += r.failed
			r.mu.Unlock()
		}
	}
	if werr != nil {
		addOps()
		return it, setup, fmt.Errorf("worker: %w", werr)
	}
	merged, err := wq.Merged()
	addOps()
	if err != nil {
		return it, setup, err
	}
	cells, err := merged.CellMap()
	if err != nil {
		return it, setup, err
	}
	st := core.NewStudy(cfg)
	if err := st.Seed(cells); err != nil {
		return it, setup, err
	}
	_, end = tr.begin("report.render", root)
	it.output, err = w.render(st, lm)
	end()
	if err != nil {
		return it, setup, err
	}
	it.wall = time.Since(start)
	it.cpu = cpuTime() - cpu0
	it.obs = countObs(st)
	it.walBytes, err = dirSize(dir)
	if err != nil {
		return it, setup, err
	}
	if lm == nil {
		return it, setup, nil
	}

	status, err := c.queue.Status()
	if err != nil {
		return it, setup, err
	}
	ncells := float64(it.cells)
	lm.add("core.run_s", compute.Seconds())
	lm.add("core.parallel_eff", computeCPU.Seconds()/(compute.Seconds()*float64(nproc)))
	lm.add("core.tail_frac", tailTime.Seconds()/compute.Seconds())
	lm.add("dispatch.units", float64(status.Units))
	lm.add("dispatch.compute_s", compute.Seconds())
	mainLoop := workerRec.total("Acquire", "Submit", "LoadPartial", "Fail")
	lm.add("dispatch.worker_idle_s", max(0, workWall.Seconds()-compute.Seconds()-mainLoop))
	lm.add("dispatch.queue_busy_s", c.coordRec.total())
	lm.add("dispatch.http_s", workerRec.total(workerCalls...)-c.coordRec.total(workerCalls...))
	workerRec.mu.Lock()
	lm.add("dispatch.nowork", float64(workerRec.nowork))
	lm.add("dispatch.retries", float64(workerRec.retries))
	workerRec.mu.Unlock()
	lm.add("dispatch.http_bytes", float64(c.wmeter.bytes.Load()))
	lm.add("dispatch.http_bytes_per_cell", float64(c.wmeter.bytes.Load())/ncells)
	lm.add("resultio.partial_bytes", float64(c.wmeter.partialBytes.Load()))
	lm.add("resultio.partial_bytes_per_cell", float64(c.wmeter.partialBytes.Load())/ncells)
	lm.add("wal.bytes", float64(it.walBytes))
	lm.add("wal.bytes_per_cell", float64(it.walBytes)/ncells)
	lm.pool("acquire", msOf(workerRec.samples("Acquire")))
	lm.pool("partial", msOf(workerRec.samples("SavePartial")))
	lm.pool("submit", msOf(workerRec.samples("Submit")))
	lm.pool("report", msOf(followRec.samples("Report")))
	return it, setup, measureAfter(st, lm, tr, root)
}

func msOf(sec []float64) []float64 {
	out := make([]float64, len(sec))
	for i, s := range sec {
		out[i] = s * 1e3
	}
	return out
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
