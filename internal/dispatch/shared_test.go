package dispatch_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"rowfuse/internal/core"
	"rowfuse/internal/dispatch"
	"rowfuse/internal/dispatch/wal"
	"rowfuse/internal/resultio"
)

// Shared campaign directories: every worker process opens its own
// WALQueue handle on one directory. flock(2) locks conflict across open
// file descriptions even inside one process, so separate handles here
// serialize exactly as separate processes would.

// initSharedDir creates a campaign directory the way campaignd -init
// does: create the queue, then close the creating handle.
func initSharedDir(t *testing.T, m dispatch.Manifest) string {
	t.Helper()
	dir := t.TempDir()
	q, err := dispatch.CreateWALQueue(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// openShared opens one more handle on a campaign directory — one more
// worker process.
func openShared(t *testing.T, dir string, opts ...dispatch.WALQueueOption) *dispatch.WALQueue {
	t.Helper()
	q, err := dispatch.OpenWALQueue(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { q.Close() })
	return q
}

func TestCreateWALQueueRefusesSecondCampaign(t *testing.T) {
	m := dispatch.NewManifest(testConfig(t), 2, time.Minute)
	dir := initSharedDir(t, m)
	if _, err := dispatch.CreateWALQueue(dir, m); err == nil || !strings.Contains(err.Error(), "already") {
		t.Fatalf("second create: %v", err)
	}
}

// TestOpenWALQueueNamesOlderSidecarDirectory: a campaign directory
// from a build that coordinated through per-unit sidecar files must
// be refused with an error that says so, not mistaken for an empty
// directory an operator should initialize afresh.
func TestOpenWALQueueNamesOlderSidecarDirectory(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := dispatch.OpenWALQueue(dir)
	if err == nil || !strings.Contains(err.Error(), "older build") || errors.Is(err, os.ErrNotExist) {
		t.Fatalf("open of a sidecar-era directory: %v", err)
	}
}

func TestSharedDirLeaseExpiryAndStealing(t *testing.T) {
	clock := newFakeClock()
	m := dispatch.NewManifest(testConfig(t), 3, time.Second)
	dir := initSharedDir(t, m)
	q := openShared(t, dir, dispatch.WALWithClock(clock.Now))
	thief := openShared(t, dir, dispatch.WALWithClock(clock.Now))

	l0, err := q.Acquire("w1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := thief.Acquire("w2"); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Acquire("w3"); err != nil {
		t.Fatal(err)
	}
	if _, err := thief.Acquire("w4"); !errors.Is(err, dispatch.ErrNoWork) {
		t.Fatalf("all leased: want ErrNoWork, got %v", err)
	}

	// Heartbeats through one handle extend the lease for every handle.
	for i := 0; i < 3; i++ {
		clock.Advance(900 * time.Millisecond)
		if err := q.Heartbeat(l0); err != nil {
			t.Fatalf("heartbeat %d: %v", i, err)
		}
	}
	// Once w1 goes silent past the TTL, the other handle steals its unit.
	clock.Advance(1100 * time.Millisecond)
	var stolen dispatch.Lease
	for {
		l, err := thief.Acquire("thief")
		if err != nil {
			t.Fatalf("steal: %v", err)
		}
		if l.Unit == l0.Unit {
			stolen = l
			break
		}
	}
	if err := q.Heartbeat(l0); !errors.Is(err, dispatch.ErrLeaseLost) {
		t.Fatalf("stale heartbeat: want ErrLeaseLost, got %v", err)
	}

	// Exactly one submission per unit wins, no matter which handle.
	if err := thief.Submit(stolen, checkpointForCells(t, m, stolen.Cells), 0); err != nil {
		t.Fatal(err)
	}
	if err := q.Submit(l0, checkpointForCells(t, m, l0.Cells), 0); !errors.Is(err, dispatch.ErrDuplicateSubmit) {
		t.Fatalf("late duplicate submit: want ErrDuplicateSubmit, got %v", err)
	}
	st := queueStatus(t, q)
	if st.Done != 1 {
		t.Fatalf("status: %+v", st)
	}
	if got := queueStatus(t, thief); !reflect.DeepEqual(got, st) {
		t.Fatalf("handles disagree:\n%+v\n%+v", got, st)
	}
}

func TestSharedDirSubmitValidatesFingerprint(t *testing.T) {
	m := dispatch.NewManifest(testConfig(t), 2, time.Minute)
	dir := initSharedDir(t, m)
	a, b := openShared(t, dir), openShared(t, dir)
	l, err := a.Acquire("w1")
	if err != nil {
		t.Fatal(err)
	}
	foreign := resultio.NewCheckpoint("deadbeef", m.Plan(l.Unit), nil)
	if err := b.Submit(l, foreign, 0); !errors.Is(err, resultio.ErrConfigMismatch) {
		t.Fatalf("foreign fingerprint: want ErrConfigMismatch, got %v", err)
	}
	if st := queueStatus(t, a); st.Done != 0 {
		t.Fatalf("rejected submit counted done: %+v", st)
	}
}

// TestSharedDirMergedRejectsPlantedDuplicate verifies the fold-side
// defense in depth: even if a journal record claims one unit's cells
// for another (tampering, a buggy writer), the overlap check refuses
// to double-count them.
func TestSharedDirMergedRejectsPlantedDuplicate(t *testing.T) {
	m := dispatch.NewManifest(testConfig(t), 2, time.Minute)
	dir := initSharedDir(t, m)
	q := openShared(t, dir)
	l, err := q.Acquire("w1")
	if err != nil {
		t.Fatal(err)
	}
	cp, _, err := dispatch.RunUnitWork(context.Background(), m, dispatch.UnitWork{Unit: l.Unit, Cells: l.Cells}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Submit(l, cp, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Merged(); err != nil {
		t.Fatal(err)
	}

	// Plant the unit's checkpoint as the other unit's accepted submit:
	// a raw submit record (kind 6) appended behind the queue's back.
	log, _, _, err := wal.Open(filepath.Join(dir, "queue.wal"))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(map[string]any{"unit": 1 - l.Unit, "worker": "planted", "checkpoint": cp})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Lock(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := log.Tail(); err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(6, payload); err != nil {
		t.Fatal(err)
	}
	if err := log.Unlock(); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := openShared(t, dir).Merged(); !errors.Is(err, resultio.ErrConfigMismatch) {
		t.Fatalf("planted duplicate: want ErrConfigMismatch via the overlap check, got %v", err)
	}
}

// TestSharedDirQuarantineDurable drives the strike ledger through a
// shared directory: worker-reported failures quarantine a unit, every
// other handle and every reopen sees the same ledger, requeue clears
// it, and a dropped unit refuses late results.
func TestSharedDirQuarantineDurable(t *testing.T) {
	m := dispatch.NewManifest(testConfig(t), 2, time.Minute)
	m.MaxStrikes = 1
	dir := initSharedDir(t, m)
	q, q2 := openShared(t, dir), openShared(t, dir)
	l, err := q.Acquire("w1")
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Fail(l, "bad dimm"); err != nil {
		t.Fatal(err)
	}
	if err := q2.Fail(l, "bad dimm"); !errors.Is(err, dispatch.ErrLeaseLost) {
		t.Fatalf("double Fail under a released lease: %v, want ErrLeaseLost", err)
	}

	// Another worker sees the quarantine and drains around it.
	entries, err := q2.Quarantined()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Unit != l.Unit || entries[0].State != dispatch.UnitQuarantined {
		t.Fatalf("shared ledger: %+v", entries)
	}
	if !strings.Contains(entries[0].LastFailure, "bad dimm (worker w1)") {
		t.Fatalf("LastFailure %q", entries[0].LastFailure)
	}
	other, err := q2.Acquire("w2")
	if err != nil {
		t.Fatal(err)
	}
	if other.Unit == l.Unit {
		t.Fatalf("quarantined unit %d re-granted", l.Unit)
	}
	if err := q2.Submit(other, checkpointForCells(t, m, other.Cells), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Acquire("w2"); !errors.Is(err, dispatch.ErrDrained) {
		t.Fatalf("acquire with only a quarantined unit left: %v, want ErrDrained", err)
	}
	if st := queueStatus(t, q); !st.Drained() || !st.Degraded() || st.Quarantined != 1 {
		t.Fatalf("status %+v, want drained+degraded", st)
	}

	// Requeue clears strikes and the unit is granted again.
	if err := q2.Requeue(l.Unit); err != nil {
		t.Fatal(err)
	}
	l2, err := q.Acquire("w3")
	if err != nil {
		t.Fatal(err)
	}
	if l2.Unit != l.Unit {
		t.Fatalf("requeued unit not re-granted: got %d, want %d", l2.Unit, l.Unit)
	}

	// Back to quarantine, then Drop: late submits are refused, and the
	// ledger survives a reopen.
	if err := q.Fail(l2, "still bad"); err != nil {
		t.Fatal(err)
	}
	if err := q2.Drop(l.Unit); err != nil {
		t.Fatal(err)
	}
	q3 := openShared(t, dir)
	entries, err = q3.Quarantined()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].State != dispatch.UnitDropped {
		t.Fatalf("ledger after drop and reopen: %+v", entries)
	}
	if err := q3.Submit(l2, checkpointForCells(t, m, l2.Cells), 0); !errors.Is(err, dispatch.ErrLeaseLost) {
		t.Fatalf("late submit to a dropped unit: %v, want ErrLeaseLost", err)
	}
}

// TestSharedDirLateSubmitUnquarantines: a quarantined (not dropped)
// unit whose deterministic result nevertheless arrives — through any
// handle — is completed and leaves the dead-letter list.
func TestSharedDirLateSubmitUnquarantines(t *testing.T) {
	m := dispatch.NewManifest(testConfig(t), 2, time.Minute)
	m.MaxStrikes = 1
	dir := initSharedDir(t, m)
	q, q2 := openShared(t, dir), openShared(t, dir)
	l, err := q.Acquire("w1")
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Fail(l, "transient wedge"); err != nil {
		t.Fatal(err)
	}
	if err := q2.Submit(l, checkpointForCells(t, m, l.Cells), 0); err != nil {
		t.Fatalf("late submit to quarantined unit: %v", err)
	}
	entries, err := q.Quarantined()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("completed unit still dead-lettered: %+v", entries)
	}
	if st := queueStatus(t, q); st.Done != 1 || st.Quarantined != 0 {
		t.Fatalf("status %+v, want the late submit counted done", st)
	}
}

// TestSharedDirRacingHandles races four handles — four worker
// processes — through Acquire and Submit on one directory with real
// unit compute and timed submits, so re-planning splits units while
// the others grant and submit. Every live unit must be accepted exactly
// once, every handle must end on the same state, and the merged
// checkpoint must be byte-identical to the unsharded run's.
func TestSharedDirRacingHandles(t *testing.T) {
	cfg := testConfig(t)
	single := core.NewStudy(cfg)
	if err := single.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := checkpointJSON(t, cfg, single)

	m := dispatch.NewManifest(cfg, 6, time.Minute)
	dir := initSharedDir(t, m)
	const handles = 4
	qs := make([]*dispatch.WALQueue, handles)
	for i := range qs {
		qs[i] = openShared(t, dir)
	}

	var (
		mu       sync.Mutex
		accepted = map[int]int{}
		wg       sync.WaitGroup
		errs     = make([]error, handles)
	)
	for i, q := range qs {
		wg.Add(1)
		go func(i int, q *dispatch.WALQueue) {
			defer wg.Done()
			worker := fmt.Sprintf("w%d", i)
			for {
				l, err := q.Acquire(worker)
				if errors.Is(err, dispatch.ErrDrained) {
					return
				}
				if errors.Is(err, dispatch.ErrNoWork) {
					time.Sleep(time.Millisecond)
					continue
				}
				if err != nil {
					errs[i] = err
					return
				}
				start := time.Now()
				cp, _, err := dispatch.RunUnitWork(context.Background(), m, dispatch.UnitWork{Unit: l.Unit, Cells: l.Cells}, 1)
				if err != nil {
					errs[i] = err
					return
				}
				if err := q.Submit(l, cp, time.Since(start)); err != nil {
					errs[i] = fmt.Errorf("%s: submit unit %d: %w", worker, l.Unit, err)
					return
				}
				mu.Lock()
				accepted[l.Unit]++
				mu.Unlock()
			}
		}(i, q)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("handle %d: %v", i, err)
		}
	}

	st := queueStatus(t, qs[0])
	if !st.Drained() || st.Done != st.Units {
		t.Fatalf("campaign not drained: %+v", st)
	}
	for _, us := range st.PerUnit {
		if accepted[us.Unit] != 1 {
			t.Fatalf("unit %d accepted %d times, want exactly once (accepted: %v)", us.Unit, accepted[us.Unit], accepted)
		}
	}
	if len(accepted) != st.Units {
		t.Fatalf("accepted %d units, status lists %d", len(accepted), st.Units)
	}
	for i, q := range qs[1:] {
		if got := queueStatus(t, q); !reflect.DeepEqual(got, st) {
			t.Fatalf("handle %d ends on a different state:\n%+v\n%+v", i+1, got, st)
		}
	}
	if got := checkpointJSON(t, cfg, seedFromQueue(t, qs[handles-1])); !bytes.Equal(got, want) {
		t.Fatal("racing handles' merged checkpoint differs from the unsharded run")
	}
}

// TestSharedDirCatchUpAcrossCompaction has one handle compact the
// journal (snapshot + reset) repeatedly while another sits idle; the
// idle handle must notice the resets, reload, and go on granting and
// submitting without reusing a unit or losing a record — and a handle
// opened afterwards must replay to the same state.
func TestSharedDirCatchUpAcrossCompaction(t *testing.T) {
	clock := newFakeClock()
	m := dispatch.NewManifest(testConfig(t), 8, time.Minute)
	dir := initSharedDir(t, m)
	opts := []dispatch.WALQueueOption{dispatch.WALWithClock(clock.Now), dispatch.WALCompactEvery(2)}
	a, b := openShared(t, dir, opts...), openShared(t, dir, opts...)

	drainSome := func(q *dispatch.WALQueue, worker string, n int) map[int]bool {
		units := map[int]bool{}
		for i := 0; i < n; i++ {
			l, err := q.Acquire(worker)
			if err != nil {
				t.Fatal(err)
			}
			if err := q.Submit(l, checkpointForCells(t, m, l.Cells), 20*time.Millisecond); err != nil {
				t.Fatalf("%s: submit unit %d: %v", worker, l.Unit, err)
			}
			units[l.Unit] = true
		}
		return units
	}
	fromA := drainSome(a, "a", 2)
	fromB := drainSome(b, "b", 1)
	for u := range fromB {
		if fromA[u] {
			t.Fatalf("unit %d granted to both handles across a compaction", u)
		}
	}
	held, err := a.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Heartbeat(held); err != nil {
		t.Fatalf("lease granted after b's compaction unknown to b: %v", err)
	}

	// Leave the journal freshly reset (header only), then have b reload
	// into that empty log and append one record: it must number past
	// the snapshot, or a would take it for damage and drop it.
	walPath := filepath.Join(dir, "queue.wal")
	for i := 0; ; i++ {
		if fi, err := os.Stat(walPath); err != nil {
			t.Fatal(err)
		} else if fi.Size() == 8 {
			break
		}
		if i == 4 {
			t.Fatal("journal never compacted down to its header")
		}
		if err := a.Heartbeat(held); err != nil {
			t.Fatal(err)
		}
	}
	clock.Advance(30 * time.Second)
	if err := b.Heartbeat(held); err != nil {
		t.Fatal(err)
	}

	st := queueStatus(t, a)
	if st.Done != 3 || st.Leased != 1 {
		t.Fatalf("state after cross-handle compactions: %+v", st)
	}
	for _, us := range st.PerUnit {
		if us.Unit == held.Unit && us.ExpiresInMs != time.Minute.Milliseconds() {
			t.Fatalf("b's heartbeat after the reset was lost: lease expires in %dms, want %dms", us.ExpiresInMs, time.Minute.Milliseconds())
		}
	}
	if got := queueStatus(t, b); !reflect.DeepEqual(got, st) {
		t.Fatalf("handles disagree:\n%+v\n%+v", got, st)
	}
	c := openShared(t, dir, opts...)
	if got := queueStatus(t, c); !reflect.DeepEqual(got, st) {
		t.Fatalf("reopened handle disagrees:\n%+v\n%+v", got, st)
	}
	if !bytes.Equal(mergedJSON(t, c), mergedJSON(t, a)) {
		t.Fatal("reopened handle's merged checkpoint differs")
	}
}

// checkpointJSON serializes a study's full aggregate state as a
// checkpoint file.
func checkpointJSON(t *testing.T, cfg core.StudyConfig, s *core.Study) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := resultio.SaveCheckpoint(&buf, resultio.NewCheckpoint(cfg.Fingerprint(), core.ShardPlan{}, s.Snapshot())); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
