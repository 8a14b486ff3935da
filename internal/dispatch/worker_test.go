package dispatch_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"rowfuse/internal/core"
	"rowfuse/internal/dispatch"
	"rowfuse/internal/resultio"
)

// checkpointForCells builds a structurally complete checkpoint for an
// explicit cell-index set — the unit coverage submit-side validation
// requires, without the cost of actually running the campaign. Unlike
// emptyCheckpoint it follows the lease's (possibly re-planned) cell
// set rather than the manifest's static plan.
func checkpointForCells(t *testing.T, m dispatch.Manifest, cells []int) *resultio.Checkpoint {
	t.Helper()
	cfg, err := m.Campaign.StudyConfig()
	if err != nil {
		t.Fatal(err)
	}
	grid := core.NewStudy(cfg).Cells()
	out := make(map[core.CellKey]core.AggregateState, len(cells))
	for _, idx := range cells {
		out[grid[idx]] = core.AggregateState{}
	}
	return resultio.NewCheckpoint(m.Fingerprint, core.ShardPlan{}, out)
}

// flakySubmitQueue wraps a Queue, failing Submit with a transient error
// until failFor has elapsed since the first attempt, and counts the
// heartbeats that arrive while submits are being rejected.
type flakySubmitQueue struct {
	dispatch.Queue
	failFor time.Duration

	mu             sync.Mutex
	firstAttempt   time.Time
	rejected       int
	beatsWhileDown int
}

func (q *flakySubmitQueue) failing(now time.Time) bool {
	if q.firstAttempt.IsZero() {
		return false
	}
	return now.Sub(q.firstAttempt) < q.failFor
}

func (q *flakySubmitQueue) Submit(l dispatch.Lease, cp *resultio.Checkpoint, elapsed time.Duration) error {
	q.mu.Lock()
	now := time.Now()
	if q.firstAttempt.IsZero() {
		q.firstAttempt = now
	}
	if q.failing(now) {
		q.rejected++
		q.mu.Unlock()
		return errors.New("injected transient submit failure")
	}
	q.mu.Unlock()
	return q.Queue.Submit(l, cp, elapsed)
}

func (q *flakySubmitQueue) Heartbeat(l dispatch.Lease) error {
	q.mu.Lock()
	if q.failing(time.Now()) {
		q.beatsWhileDown++
	}
	q.mu.Unlock()
	return q.Queue.Heartbeat(l)
}

// TestWorkerRetriesTransientSubmitWithoutAbandoningUnit is the
// regression test for the submit hardening: a finished unit whose
// submission hits transient queue errors must be retried with backoff
// while the lease is kept alive by heartbeats — not abandoned, not
// recomputed, and not allowed to expire mid-retry.
func TestWorkerRetriesTransientSubmitWithoutAbandoningUnit(t *testing.T) {
	ttl := 400 * time.Millisecond
	m := dispatch.NewManifest(testConfig(t), 2, ttl)
	inner, err := dispatch.NewMemQueue(m)
	if err != nil {
		t.Fatal(err)
	}
	// Reject submits for well over one TTL: only a worker that keeps
	// heartbeating through the retry loop still owns the lease when the
	// queue recovers.
	q := &flakySubmitQueue{Queue: inner, failFor: ttl + ttl/2}

	var mu sync.Mutex
	runs := 0
	_, err = dispatch.Work(context.Background(), q, dispatch.WorkerOptions{
		Name: "retry-worker",
		RunShard: func(ctx context.Context, m dispatch.Manifest, u dispatch.UnitWork) (*resultio.Checkpoint, dispatch.UnitRunStats, error) {
			mu.Lock()
			runs++
			mu.Unlock()
			st := dispatch.UnitRunStats{TotalCells: len(u.Cells), ComputedCells: len(u.Cells)}
			return checkpointForCells(t, m, u.Cells), st, nil
		},
		Log: t.Logf,
	})
	if err != nil {
		t.Fatalf("worker failed instead of retrying the transient submit: %v", err)
	}
	if runs != m.Units {
		t.Fatalf("RunShard ran %d times for %d units; a transient submit error must not force a recompute", runs, m.Units)
	}
	st, err := inner.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Drained() {
		t.Fatalf("campaign not drained after submit retries: %+v", st)
	}
	q.mu.Lock()
	rejected, beats := q.rejected, q.beatsWhileDown
	q.mu.Unlock()
	if rejected == 0 {
		t.Fatal("test never exercised the failing-submit window")
	}
	if beats == 0 {
		t.Fatalf("no heartbeats during the %d rejected submits; the lease would have expired mid-retry", rejected)
	}
}

// TestWorkerOneShotSubmitFailure pins the minimal satellite case: a
// single injected submit failure delays the unit, nothing more.
func TestWorkerOneShotSubmitFailure(t *testing.T) {
	m := dispatch.NewManifest(testConfig(t), 1, time.Minute)
	inner, err := dispatch.NewMemQueue(m)
	if err != nil {
		t.Fatal(err)
	}
	q := &flakySubmitQueue{Queue: inner, failFor: time.Nanosecond} // first call fails, clock has moved by the second
	runs := 0
	done, err := dispatch.Work(context.Background(), q, dispatch.WorkerOptions{
		Name: "oneshot",
		Poll: 20 * time.Millisecond,
		RunShard: func(ctx context.Context, m dispatch.Manifest, u dispatch.UnitWork) (*resultio.Checkpoint, dispatch.UnitRunStats, error) {
			runs++
			st := dispatch.UnitRunStats{TotalCells: len(u.Cells), ComputedCells: len(u.Cells)}
			return checkpointForCells(t, m, u.Cells), st, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if done != 1 || runs != 1 {
		t.Fatalf("submitted %d units with %d runs, want 1 and 1", done, runs)
	}
}

// TestWorkerResumesFromIntraUnitCheckpoint is the kill-a-worker resume
// path: a worker dies mid-unit after writing intra-unit checkpoints;
// once its lease expires, the re-granted lease must resume from the
// stored partial — computing strictly fewer cells than the unit holds —
// and the fused campaign must still render byte-identical output.
func TestWorkerResumesFromIntraUnitCheckpoint(t *testing.T) {
	cfg := testConfig(t)
	single := core.NewStudy(cfg)
	if err := single.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := renderCampaign(t, single)

	ttl := 400 * time.Millisecond
	dir := initSharedDir(t, dispatch.NewManifest(cfg, 2, ttl))

	// The doomed worker: leases a unit, computes a few cells (writing
	// an intra-unit checkpoint after each), then dies — modelled as a
	// canceled context and no further touches.
	doomed := openShared(t, dir)
	m := dispatchManifest(t, doomed)
	lease, err := doomed.Acquire("doomed")
	if err != nil {
		t.Fatal(err)
	}
	const dieAfter = 3
	ctx, die := context.WithCancel(context.Background())
	saved := 0
	_, _, runErr := dispatch.RunUnitWork(ctx, m, dispatch.UnitWork{
		Unit:  lease.Unit,
		Cells: lease.Cells,
		SavePartial: func(cp *resultio.Checkpoint) error {
			if err := doomed.SavePartial(lease, cp); err != nil {
				return err
			}
			if saved++; saved >= dieAfter {
				die()
			}
			return nil
		},
	}, 1)
	die()
	if runErr == nil {
		t.Fatal("doomed worker finished its whole unit; the test wanted it dead mid-unit")
	}
	if saved < dieAfter {
		t.Fatalf("doomed worker saved %d partials before dying, want >= %d", saved, dieAfter)
	}

	// A survivor drains the campaign once the dead lease expires.
	wq := openShared(t, dir)
	var (
		mu    sync.Mutex
		stats = map[int]dispatch.UnitRunStats{}
		logs  strings.Builder
	)
	workCtx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	_, err = dispatch.Work(workCtx, wq, dispatch.WorkerOptions{
		Name: "survivor",
		RunShard: func(ctx context.Context, m dispatch.Manifest, u dispatch.UnitWork) (*resultio.Checkpoint, dispatch.UnitRunStats, error) {
			cp, st, err := dispatch.RunUnitWork(ctx, m, u, 0)
			mu.Lock()
			stats[u.Unit] = st
			mu.Unlock()
			return cp, st, err
		},
		Log: func(format string, args ...any) {
			mu.Lock()
			fmt.Fprintf(&logs, format+"\n", args...)
			mu.Unlock()
			t.Logf(format, args...)
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	st, ok := stats[lease.Unit]
	if !ok {
		t.Fatalf("survivor never ran the doomed unit %d (stats: %+v)", lease.Unit, stats)
	}
	if st.ResumedCells < dieAfter {
		t.Fatalf("re-granted unit resumed %d cells, want >= %d (partial not used)", st.ResumedCells, dieAfter)
	}
	if st.ComputedCells >= st.TotalCells {
		t.Fatalf("re-granted unit recomputed all %d cells despite an intra-unit checkpoint", st.TotalCells)
	}
	if !strings.Contains(logs.String(), "resuming from intra-unit checkpoint") {
		t.Error("worker log never mentioned the intra-unit resume")
	}

	coord := openShared(t, dir)
	status, err := coord.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !status.Drained() {
		t.Fatalf("campaign not drained: %+v", status)
	}
	got := renderCampaign(t, seedFromQueue(t, coord))
	if string(got) != string(want) {
		t.Fatalf("resumed campaign rendering differs from the unsharded run:\n--- resumed ---\n%s\n--- single ---\n%s", got, want)
	}
}

// slowAcquireQueue makes every grant take longer than a unit's
// compute. It counts heartbeats to tell whether any lease is still
// being kept alive.
type slowAcquireQueue struct {
	dispatch.Queue
	delay time.Duration

	mu    sync.Mutex
	beats int
}

func (q *slowAcquireQueue) Acquire(worker string) (dispatch.Lease, error) {
	time.Sleep(q.delay)
	return q.Queue.Acquire(worker)
}

func (q *slowAcquireQueue) Heartbeat(l dispatch.Lease) error {
	q.mu.Lock()
	q.beats++
	q.mu.Unlock()
	return q.Queue.Heartbeat(l)
}

func (q *slowAcquireQueue) heartbeats() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.beats
}

// TestWorkerDrainsWithSlowGrants: with grants slower than a unit's
// compute and partials written near each unit's end, Work must drain
// and return nil, and leave no lease heartbeated behind it — a lease
// the worker holds but never runs would sit heartbeated forever while
// the worker polled ErrNoWork until its deadline.
func TestWorkerDrainsWithSlowGrants(t *testing.T) {
	ttl := 300 * time.Millisecond
	m := dispatch.NewManifest(testConfig(t), 6, ttl)
	inner, err := dispatch.NewMemQueue(m, dispatch.WithoutReplanning())
	if err != nil {
		t.Fatal(err)
	}
	q := &slowAcquireQueue{Queue: inner, delay: 40 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	runs := 0
	_, err = dispatch.Work(ctx, q, dispatch.WorkerOptions{
		Name: "slow-grants",
		Poll: 20 * time.Millisecond,
		RunShard: func(ctx context.Context, m dispatch.Manifest, u dispatch.UnitWork) (*resultio.Checkpoint, dispatch.UnitRunStats, error) {
			// The first two units checkpoint all but their last cell,
			// then finish at once: the tail is shorter than a grant.
			if runs++; runs <= 2 {
				_ = u.SavePartial(checkpointForCells(t, m, u.Cells[:len(u.Cells)-1]))
			}
			st := dispatch.UnitRunStats{TotalCells: len(u.Cells), ComputedCells: len(u.Cells)}
			return checkpointForCells(t, m, u.Cells), st, nil
		},
		Log: t.Logf,
	})
	if err != nil {
		t.Fatalf("worker did not drain the campaign: %v", err)
	}
	if st := queueStatus(t, inner); !st.Drained() {
		t.Fatalf("campaign not drained: %+v", st)
	}
	before := q.heartbeats()
	time.Sleep(ttl)
	if after := q.heartbeats(); after != before {
		t.Fatalf("%d heartbeats arrived after Work returned; a lease is still being kept alive", after-before)
	}
}

// countingQueue counts the Acquire calls that reach the queue.
type countingQueue struct {
	dispatch.Queue

	mu       sync.Mutex
	acquires int
}

func (q *countingQueue) Acquire(worker string) (dispatch.Lease, error) {
	q.mu.Lock()
	q.acquires++
	q.mu.Unlock()
	return q.Queue.Acquire(worker)
}

// TestWorkerStopsAtOnceOnCanceledCampaign: a canceled campaign is a
// final answer, so the worker returns ErrCanceled after one Acquire
// instead of retrying it as a transient fault.
func TestWorkerStopsAtOnceOnCanceledCampaign(t *testing.T) {
	m := dispatch.NewManifest(testConfig(t), 2, time.Minute)
	inner, err := dispatch.NewMemQueue(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := inner.Cancel(); err != nil {
		t.Fatal(err)
	}
	q := &countingQueue{Queue: inner}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	_, err = dispatch.Work(ctx, q, dispatch.WorkerOptions{Name: "w", Poll: 10 * time.Millisecond, Log: t.Logf})
	if !errors.Is(err, dispatch.ErrCanceled) {
		t.Fatalf("Work on a canceled campaign returned %v, want ErrCanceled", err)
	}
	if q.acquires != 1 {
		t.Fatalf("Work called Acquire %d times on a canceled campaign, want 1", q.acquires)
	}
}

// TestWorkerHeartbeatFinalCancelsUnit: a campaign canceled while a
// unit runs answers the next heartbeat with ErrCanceled, which cancels
// the unit and ends the worker instead of ticking on until the run
// finishes on its own.
func TestWorkerHeartbeatFinalCancelsUnit(t *testing.T) {
	m := dispatch.NewManifest(testConfig(t), 2, 300*time.Millisecond)
	q, err := dispatch.NewMemQueue(m)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	_, err = dispatch.Work(ctx, q, dispatch.WorkerOptions{
		Name: "w",
		RunShard: func(ctx context.Context, m dispatch.Manifest, u dispatch.UnitWork) (*resultio.Checkpoint, dispatch.UnitRunStats, error) {
			if err := q.Cancel(); err != nil {
				t.Error(err)
			}
			<-ctx.Done()
			return nil, dispatch.UnitRunStats{}, ctx.Err()
		},
		Log: t.Logf,
	})
	if !errors.Is(err, dispatch.ErrCanceled) {
		t.Fatalf("Work returned %v, want ErrCanceled from the heartbeat", err)
	}
}
