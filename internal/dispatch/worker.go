package dispatch

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"time"

	"rowfuse/internal/core"
	"rowfuse/internal/resultio"
)

// jitter spreads a timer ±10% so a worker fleet started in lockstep
// (one orchestrator, one boot script) does not heartbeat and poll the
// coordinator in synchronized bursts forever.
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return time.Duration(float64(d) * (0.9 + 0.2*rand.Float64()))
}

// UnitWork describes one leased unit to a shard runner: which cells to
// compute, and what a dead predecessor already finished.
type UnitWork struct {
	// Unit is the unit's id (for logging; the lease carries the truth).
	Unit int
	// Cells are the grid cell indices the unit covers. Empty means the
	// unit follows the manifest's static plan for Unit.
	Cells []int
	// Resume, when non-nil, is the unit's intra-unit checkpoint: cells
	// already computed under a previous lease, to be seeded instead of
	// recomputed.
	Resume *resultio.Checkpoint
	// SavePartial, when non-nil, receives intra-unit checkpoints as
	// cells complete. Errors are the runner's to tolerate: partials are
	// an optimization, the unit result must not depend on them.
	SavePartial func(*resultio.Checkpoint) error
	// PartialEvery is the intra-unit checkpoint cadence in completed
	// cells (<= 0: after every cell).
	PartialEvery int
}

// UnitRunStats reports how much of a unit was actually computed — the
// observability hook the resume path is tested through.
type UnitRunStats struct {
	// TotalCells is the number of cells the unit covers.
	TotalCells int
	// ResumedCells were seeded from the intra-unit checkpoint.
	ResumedCells int
	// ComputedCells = TotalCells - ResumedCells.
	ComputedCells int
}

// WorkerOptions customizes a worker loop.
type WorkerOptions struct {
	// Name identifies the worker in leases and status output
	// (default: hostname-pid).
	Name string
	// Poll is how long to wait after ErrNoWork before asking again
	// (default: half the lease TTL, clamped to [50ms, 5s] — an expired
	// lease becomes stealable within one TTL, so polling much slower
	// than the TTL would leave dead workers' units idle).
	Poll time.Duration
	// Concurrency bounds this worker's study pool (0 = GOMAXPROCS).
	// A per-machine execution detail: it does not touch the campaign
	// fingerprint.
	Concurrency int
	// PartialEvery is the intra-unit checkpoint cadence in completed
	// cells (default 1: every completed cell is durable immediately;
	// raise it if checkpoint I/O to the coordinator is expensive
	// relative to a cell's compute time).
	PartialEvery int
	// UnitTimeout bounds a single unit's compute (0 = unbounded). A
	// unit that exceeds it is canceled and reported to the queue as a
	// failure — converting a wedged solve into a strike toward
	// quarantine instead of a worker that never comes back.
	UnitTimeout time.Duration
	// RunShard computes one unit, reporting how much of it was really
	// computed vs resumed (the stats scale the elapsed time submitted
	// to the queue's cost model). Nil means RunUnitWork (the real
	// campaign); tests substitute crashing or instrumented runners.
	RunShard func(ctx context.Context, m Manifest, u UnitWork) (*resultio.Checkpoint, UnitRunStats, error)
	// Log receives progress lines (nil discards them).
	Log func(format string, args ...any)
}

func (o WorkerOptions) withDefaults(ttl time.Duration) WorkerOptions {
	if o.Name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		o.Name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if o.Poll == 0 {
		o.Poll = ttl / 2
		if o.Poll < 50*time.Millisecond {
			o.Poll = 50 * time.Millisecond
		}
		if o.Poll > 5*time.Second {
			o.Poll = 5 * time.Second
		}
	}
	if o.PartialEvery == 0 {
		o.PartialEvery = 1
	}
	if o.RunShard == nil {
		conc := o.Concurrency
		o.RunShard = func(ctx context.Context, m Manifest, u UnitWork) (*resultio.Checkpoint, UnitRunStats, error) {
			return RunUnitWork(ctx, m, u, conc)
		}
	}
	if o.Log == nil {
		o.Log = func(string, ...any) {}
	}
	return o
}

// RunUnitWork computes one unit: reconstruct the campaign config from
// the manifest, restrict it to the unit's cells, seed the intra-unit
// resume checkpoint (completed cells are skipped, not recomputed),
// stream new intra-unit checkpoints through u.SavePartial, and pack
// the unit's complete aggregate state.
func RunUnitWork(ctx context.Context, m Manifest, u UnitWork, concurrency int) (*resultio.Checkpoint, UnitRunStats, error) {
	var stats UnitRunStats
	cfg, err := m.Campaign.StudyConfig()
	if err != nil {
		return nil, stats, err
	}
	cells := u.Cells
	if cells == nil {
		cells = m.UnitCells(u.Unit)
	}
	cfg.CellIndices = cells
	cfg.Concurrency = concurrency
	cfg.CheckpointEvery = u.PartialEvery
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 1
	}
	stats.TotalCells = len(cells)
	if u.SavePartial != nil {
		save := u.SavePartial
		total := len(cells)
		cfg.Checkpoint = func(done map[core.CellKey]core.AggregateState) error {
			// Partials are best-effort by contract; the runner's own
			// result does not depend on them landing. The final
			// checkpoint Study.Run fires covers the complete unit —
			// Submit is about to deliver those exact bytes, so
			// forwarding it as a partial would be a redundant full
			// round trip.
			if len(done) < total {
				_ = save(resultio.NewCheckpoint(m.Fingerprint, core.ShardPlan{}, done))
			}
			return nil
		}
	}
	study := core.NewStudy(cfg)
	if u.Resume != nil {
		seeded, err := u.Resume.CellMap()
		if err == nil {
			if err := study.Seed(seeded); err == nil {
				stats.ResumedCells = len(seeded)
			}
		}
	}
	stats.ComputedCells = stats.TotalCells - stats.ResumedCells
	if err := study.Run(ctx); err != nil {
		return nil, stats, err
	}
	return resultio.NewCheckpoint(m.Fingerprint, core.ShardPlan{}, study.Snapshot()), stats, nil
}

// Work drains the queue one lease at a time: acquire a lease, load its
// intra-unit checkpoint, run the shard while one goroutine heartbeats
// the lease on a TTL/3 ticker (through submission retries too), and
// submit, until the campaign is drained (nil error) or ctx is
// canceled. A lost lease (this worker was presumed dead and its unit
// re-granted) abandons the unit — the thief resumes from our last
// intra-unit checkpoint and its result is byte-identical. A final
// answer (isFinal) ends the worker; other failures are retried.
// Returns the number of units this worker submitted.
func Work(ctx context.Context, q Queue, opt WorkerOptions) (int, error) {
	m, err := q.Manifest()
	if err != nil {
		return 0, err
	}
	opt = opt.withDefaults(m.LeaseTTL())
	beat := m.LeaseTTL() / 3
	if beat < 10*time.Millisecond {
		beat = 10 * time.Millisecond
	}
	// A worker exists to outlive coordinator restarts and network
	// blips — the same transient faults heartbeats already tolerate.
	// Only a final answer, or persistent failure (a couple of TTLs'
	// worth of consecutive errors; with the backoff capped at TTL/3,
	// eight strikes span roughly 2.5 lease TTLs), ends the worker.
	maxStrikes := 8
	strikes := 0
	// retry returns nil when the failed op should be tried again, or
	// the error that ends the worker.
	retry := func(op string, err error) error {
		if isFinal(err) {
			return err
		}
		if strikes++; strikes > maxStrikes {
			return fmt.Errorf("dispatch: %s failed %d times in a row: %w", op, strikes, err)
		}
		opt.Log("worker %s: %s: %v (retry %d/%d)", opt.Name, op, err, strikes, maxStrikes)
		return nil
	}
	// Submit retries back off exponentially but stay well inside the
	// heartbeat cadence's reach: the lease must outlive the whole retry
	// budget, or a finished unit's result is thrown away with it.
	backoff := func(attempt int) time.Duration {
		d := opt.Poll / 4
		if d < 10*time.Millisecond {
			d = 10 * time.Millisecond
		}
		for i := 0; i < attempt && d < m.LeaseTTL()/3; i++ {
			d *= 2
		}
		if max := m.LeaseTTL() / 3; d > max {
			d = max
		}
		return d
	}
	done := 0
	for {
		if err := ctx.Err(); err != nil {
			return done, err
		}
		lease, err := q.Acquire(opt.Name)
		switch {
		case errors.Is(err, ErrDrained):
			opt.Log("worker %s: campaign drained after %d units", opt.Name, done)
			return done, nil
		case errors.Is(err, ErrNoWork):
			strikes = 0
			sleep(ctx, jitter(opt.Poll))
			continue
		case err != nil:
			if ferr := retry("acquire", err); ferr != nil {
				return done, ferr
			}
			sleep(ctx, jitter(opt.Poll))
			continue
		}
		strikes = 0
		opt.Log("worker %s: leased unit %d (%d cells)", opt.Name, lease.Unit, len(lease.Cells))

		// The heartbeat goroutine spans the unit's whole lifetime on
		// this worker — compute and submission retries alike. A
		// finished unit whose first submit hits a transient queue error
		// must not lose its lease while the retry loop sleeps.
		unitCtx, cancel := context.WithCancel(ctx)
		// hbErr is the answer that ended the heartbeat early:
		// ErrLeaseLost or a final one. Read it only after stop.
		var hbErr error
		hbDone := make(chan struct{})
		go func() {
			defer close(hbDone)
			t := time.NewTimer(jitter(beat))
			defer t.Stop()
			for {
				select {
				case <-unitCtx.Done():
					return
				case <-t.C:
					if err := q.Heartbeat(lease); err != nil {
						if errors.Is(err, ErrLeaseLost) || isFinal(err) {
							hbErr = err
							cancel()
							return
						}
						// Transient (e.g. a network blip to the
						// coordinator): keep ticking; the lease
						// survives until the TTL runs out.
						opt.Log("worker %s: heartbeat unit %d: %v", opt.Name, lease.Unit, err)
					}
					t.Reset(jitter(beat))
				}
			}
		}()
		stop := func() {
			cancel()
			<-hbDone
		}

		// A dead predecessor's intra-unit checkpoint turns a re-granted
		// lease into a resume instead of a recompute. Failure to load
		// it is strictly a lost optimization.
		resume, perr := q.LoadPartial(lease)
		if perr != nil {
			opt.Log("worker %s: unit %d: loading intra-unit checkpoint: %v (computing from scratch)", opt.Name, lease.Unit, perr)
			resume = nil
		}
		if resume != nil {
			opt.Log("worker %s: unit %d: resuming from intra-unit checkpoint (%d of %d cells done)",
				opt.Name, lease.Unit, len(resume.Cells), len(lease.Cells))
		}
		work := UnitWork{
			Unit:         lease.Unit,
			Cells:        lease.Cells,
			Resume:       resume,
			PartialEvery: opt.PartialEvery,
			SavePartial: func(cp *resultio.Checkpoint) error {
				if err := q.SavePartial(lease, cp); err != nil && !errors.Is(err, ErrLeaseLost) {
					opt.Log("worker %s: unit %d: intra-unit checkpoint: %v", opt.Name, lease.Unit, err)
				}
				return nil
			},
		}
		start := time.Now()
		cp, stats, runErr := runUnit(unitCtx, opt, m, work)
		elapsed := time.Since(start)
		// A resumed unit's wall time covers only the cells actually
		// computed; scale it to the full-unit equivalent so the queue's
		// cost model is not fed a 99%-resumed unit as "cheap". A run
		// that computed nothing measured nothing.
		switch {
		case stats.ComputedCells <= 0:
			elapsed = 0
		case stats.ComputedCells < stats.TotalCells:
			elapsed = time.Duration(float64(elapsed) * float64(stats.TotalCells) / float64(stats.ComputedCells))
		}
		if runErr != nil {
			stop()
			switch {
			case errors.Is(hbErr, ErrLeaseLost):
				opt.Log("worker %s: unit %d lease lost mid-run; abandoning", opt.Name, lease.Unit)
			case hbErr != nil:
				return done, hbErr
			case ctx.Err() != nil:
				// The worker itself is shutting down; the lease expires
				// and another worker resumes from the last partial. Not
				// the unit's fault — no strike.
			default:
				// A run failure is the unit's problem, not the
				// worker's: report it so the queue can strike the unit
				// toward quarantine, and move on to other work. A
				// poison unit thus burns MaxStrikes grants fleet-wide
				// instead of crashing every worker that touches it.
				reason := runErr.Error()
				if errors.Is(runErr, context.DeadlineExceeded) {
					reason = fmt.Sprintf("unit timeout %v exceeded", opt.UnitTimeout)
				}
				if ferr := q.Fail(lease, reason); ferr != nil && !errors.Is(ferr, ErrLeaseLost) {
					opt.Log("worker %s: unit %d: reporting failure: %v", opt.Name, lease.Unit, ferr)
				}
				opt.Log("worker %s: unit %d failed: %v", opt.Name, lease.Unit, runErr)
			}
			continue
		}
		submitted := false
		for attempt := 0; ; attempt++ {
			err := q.Submit(lease, cp, elapsed)
			if err == nil {
				submitted = true
				strikes = 0
				break
			}
			if errors.Is(err, ErrDuplicateSubmit) || errors.Is(err, ErrLeaseLost) {
				// Another worker's (byte-identical) result won the race.
				opt.Log("worker %s: unit %d already submitted elsewhere", opt.Name, lease.Unit)
				break
			}
			if ferr := retry("submit", err); ferr != nil {
				stop()
				return done, ferr
			}
			// unitCtx ends when the heartbeat loses the lease or gets
			// a final answer, or when the worker shuts down.
			if !sleep(unitCtx, jitter(backoff(attempt))) {
				break
			}
		}
		stop()
		if submitted {
			done++
			opt.Log("worker %s: submitted unit %d", opt.Name, lease.Unit)
		} else if errors.Is(hbErr, ErrLeaseLost) {
			opt.Log("worker %s: unit %d lease lost during submit retries; abandoning", opt.Name, lease.Unit)
		}
		if isFinal(hbErr) {
			return done, hbErr
		}
	}
}

// sleep waits d, or less if ctx ends first; it reports whether the
// whole wait elapsed.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// runUnit executes one unit's shard runner under the worker's optional
// unit timeout, converting a panic into an ordinary run error so one
// poison unit cannot kill the worker process.
func runUnit(parent context.Context, opt WorkerOptions, m Manifest, u UnitWork) (cp *resultio.Checkpoint, stats UnitRunStats, err error) {
	ctx := parent
	if opt.UnitTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(parent, opt.UnitTimeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			cp, err = nil, fmt.Errorf("shard runner panicked: %v", r)
		}
	}()
	cp, stats, err = opt.RunShard(ctx, m, u)
	// Surface the timeout as the canonical sentinel even when the
	// runner wrapped or swallowed the context error, but never mistake
	// the worker's own shutdown for a unit timeout.
	if err != nil && parent.Err() == nil && errors.Is(ctx.Err(), context.DeadlineExceeded) && !errors.Is(err, context.DeadlineExceeded) {
		err = fmt.Errorf("%v: %w", err, context.DeadlineExceeded)
	}
	return cp, stats, err
}
