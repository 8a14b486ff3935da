package dispatch

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"rowfuse/internal/dispatch/wal"
	"rowfuse/internal/resultio"
)

// WALQueue is a MemQueue whose every state transition is journaled to
// a write-ahead log before it is acknowledged, so a coordinator crash
// or restart loses nothing: reopening the directory replays the
// journal back to the exact in-memory queue state — granted leases
// (with their tokens and expiries), accepted submissions, intra-unit
// partials, re-planned unit boundaries and the learned cost model all
// survive.
//
// A queue directory may be opened by any number of handles at once —
// one coordinator process, or one handle per worker process on a
// shared filesystem. Every operation, reads included, runs under an
// exclusive flock on the journal: the handle first applies the records
// other handles appended since its last operation (a full replay when
// one of them compacted the log meanwhile), then runs the operation
// through its MemQueue, then appends. Every handle therefore decides
// against the same state, and when nobody else wrote, the check costs
// one fstat and one two-byte pread.
//
// Journal discipline: a mutation is applied to the in-memory state,
// its records are appended to the log, and — for everything except
// heartbeats — fsynced, all before the caller sees a result. Nothing
// externally visible (a granted lease, an accepted submit) can
// therefore be forgotten by a restart. Heartbeats are journaled but
// not individually fsynced: losing the tail of a heartbeat run merely
// re-opens the lease to expiry-based stealing, which the at-least-
// once execution model already tolerates, and it spares the journal
// one fsync per worker per TTL/3.
//
// The log is compacted by atomic snapshot+reset: the full queue state
// is written to a sibling snapshot file (temp+fsync+rename), then the
// log is truncated. The snapshot records the last sequence number it
// folds in and replay skips log records at or below it, so a crash
// between the two steps is harmless. Sequence numbers never restart.
//
// Nondeterminism never reaches replay: records carry the minted
// tokens, expiry timestamps and re-planned cell sets, not the inputs
// that produced them, so replay is pure state application — no clock,
// no randomness, no cost-model arithmetic whose drift could fork the
// state.
type WALQueue struct {
	mu  sync.Mutex
	mem *MemQueue
	log *wal.Log
	dir string
	now func() time.Time // nil: the MemQueue default

	compactEvery int
	// sinceCompact counts the records in the log since its last reset,
	// whichever handle appended them.
	sinceCompact int

	// buf stages the records of the mutation in flight (filled by the
	// journalSink callbacks, drained by flushLocked).
	buf    []walRec
	bufErr error

	recovered wal.RecoverInfo
	// failed poisons the handle after a journal error: the in-memory
	// state no longer matches the durable state, and serving from it
	// would hand out leases a restart has never heard of.
	failed error
	closed bool
}

type walRec struct {
	kind    uint8
	payload []byte
	durable bool
}

// WAL record kinds: every queue state transition has one.
const (
	kindInit      uint8 = 1 // campaign manifest (first record of a fresh log)
	kindPlan      uint8 = 2 // re-planned unit boundaries (slot deltas)
	kindGrant     uint8 = 3 // lease granted on a never-leased unit
	kindSteal     uint8 = 4 // lease granted over an expired predecessor
	kindHeartbeat uint8 = 5 // lease extended
	kindSubmit    uint8 = 6 // unit checkpoint accepted
	kindPartial   uint8 = 7 // intra-unit checkpoint stored
	kindCancel    uint8 = 8 // campaign canceled
	kindStrike    uint8 = 9 // unit strike / quarantine / requeue / drop
)

type recInit struct {
	Manifest Manifest `json:"manifest"`
}
type recPlan struct {
	Deltas []PlanDelta `json:"deltas"`
}
type recGrant struct {
	Lease Lease `json:"lease"`
}
type recHeartbeat struct {
	Unit    int       `json:"unit"`
	Token   string    `json:"token"`
	Expires time.Time `json:"expires"`
}
type recSubmit struct {
	Unit       int                  `json:"unit"`
	Worker     string               `json:"worker"`
	ElapsedNs  int64                `json:"elapsedNs,omitempty"`
	Checkpoint *resultio.Checkpoint `json:"checkpoint"`
}
type recPartial struct {
	Unit       int                  `json:"unit"`
	Token      string               `json:"token"`
	Checkpoint *resultio.Checkpoint `json:"checkpoint"`
}

// recStrike carries the *resulting* strike state of a unit — expiry
// strikes, worker-reported failures, operator requeues (strikes back
// to 0, state pending) and drops all journal as this one kind, so
// replay is pure state application.
type recStrike struct {
	Unit    int    `json:"unit"`
	Strikes int    `json:"strikes"`
	State   string `json:"state"`
	Reason  string `json:"reason,omitempty"`
}

// walSnapshot is the compaction snapshot payload.
type walSnapshot struct {
	Manifest Manifest   `json:"manifest"`
	State    queueState `json:"state"`
}

const (
	walFile  = "queue.wal"
	snapFile = "queue.snap"
	// defaultCompactEvery bounds journal growth: after this many
	// records the state is snapshotted and the log reset.
	defaultCompactEvery = 512
)

// WALQueueOption customizes a WALQueue.
type WALQueueOption func(*WALQueue)

// WALWithClock substitutes the queue's time source (tests drive lease
// expiry without sleeping).
func WALWithClock(now func() time.Time) WALQueueOption {
	return func(q *WALQueue) { q.now = now }
}

// WALCompactEvery overrides the journal's compaction threshold.
func WALCompactEvery(n int) WALQueueOption {
	return func(q *WALQueue) {
		if n > 0 {
			q.compactEvery = n
		}
	}
}

func newWALQueue(dir string, opts []WALQueueOption) *WALQueue {
	q := &WALQueue{dir: dir, compactEvery: defaultCompactEvery}
	for _, o := range opts {
		o(q)
	}
	return q
}

// install makes a fresh MemQueue for m the handle's state.
func (q *WALQueue) install(m Manifest) error {
	mem, err := NewMemQueue(m)
	if err != nil {
		return err
	}
	if q.now != nil {
		mem.now = q.now
	}
	mem.sink = q
	q.mem = mem
	return nil
}

// CreateWALQueue initializes a durable campaign queue in dir (created
// if missing). Fails if dir already holds a queue — reopen one with
// OpenWALQueue instead.
func CreateWALQueue(dir string, m Manifest, opts ...WALQueueOption) (*WALQueue, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	q := newWALQueue(dir, opts)
	if err := q.install(m); err != nil {
		return nil, err
	}
	log, err := wal.Create(filepath.Join(dir, walFile))
	if err != nil {
		if errors.Is(err, os.ErrExist) {
			return nil, fmt.Errorf("dispatch: %s already holds a campaign queue (reopen it with OpenWALQueue)", dir)
		}
		return nil, err
	}
	q.log = log
	payload, err := json.Marshal(recInit{Manifest: m})
	if err == nil {
		err = log.Lock()
	}
	if err == nil {
		_, err = log.Append(kindInit, payload)
	}
	if err == nil {
		err = log.Sync()
	}
	if err == nil {
		err = log.Unlock()
	}
	if err != nil {
		log.Close()
		return nil, err
	}
	q.sinceCompact = 1
	return q, nil
}

// OpenWALQueue opens a handle on the durable campaign queue in dir,
// replaying snapshot and journal back to the exact state the last
// acknowledged mutation left behind. Other handles may have the queue
// open, in this process or another. A torn journal tail (crash
// mid-append) heals silently; real corruption surfaces its wal
// sentinel through Recovered() after the queue falls back to the last
// consistent state. Snapshot damage is a hard error: the records it
// folded away are gone, so there is nothing consistent to fall back
// to.
func OpenWALQueue(dir string, opts ...WALQueueOption) (*WALQueue, error) {
	log, err := wal.Attach(filepath.Join(dir, walFile))
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		if _, serr := os.Stat(filepath.Join(dir, "manifest.json")); serr == nil {
			return nil, fmt.Errorf("%s was made by an older build that coordinated through per-unit sidecar files and cannot be opened; its done_*.json checkpoints still merge with characterize -merge", dir)
		}
		return nil, fmt.Errorf("%s holds no campaign queue: %w", dir, err)
	}
	q := newWALQueue(dir, opts)
	q.log = log
	if err := log.Lock(); err != nil {
		log.Close()
		return nil, err
	}
	q.recovered, err = q.replayLocked()
	if uerr := log.Unlock(); err == nil {
		err = uerr
	}
	if err != nil {
		log.Close()
		return nil, err
	}
	return q, nil
}

// replayLocked rebuilds the handle's state from the snapshot and the
// whole journal. Callers hold the journal lock.
func (q *WALQueue) replayLocked() (wal.RecoverInfo, error) {
	var (
		snap     walSnapshot
		snapSeq  uint64
		haveSnap bool
	)
	payload, seq, err := wal.ReadSnapshot(filepath.Join(q.dir, snapFile))
	switch {
	case err == nil:
		if err := json.Unmarshal(payload, &snap); err != nil {
			return wal.RecoverInfo{}, fmt.Errorf("%w: %s: %v", wal.ErrBadSnapshot, q.dir, err)
		}
		snapSeq, haveSnap = seq, true
	case errors.Is(err, os.ErrNotExist):
	default:
		return wal.RecoverInfo{}, err
	}

	recs, info, err := q.log.Replay()
	if err != nil {
		return info, err
	}
	m := snap.Manifest
	if !haveSnap {
		if len(recs) == 0 || recs[0].Kind != kindInit {
			return info, fmt.Errorf("%w: %s: journal does not start with an init record", wal.ErrBadRecord, q.dir)
		}
		var init recInit
		if err := json.Unmarshal(recs[0].Payload, &init); err != nil {
			return info, fmt.Errorf("%w: init record: %v", wal.ErrBadRecord, err)
		}
		m = init.Manifest
	}
	if err := q.install(m); err != nil {
		return info, err
	}
	if haveSnap {
		if err := q.mem.restoreState(snap.State); err != nil {
			return info, fmt.Errorf("%w: %s: %v", wal.ErrBadSnapshot, q.dir, err)
		}
	}
	q.log.SkipTo(snapSeq)
	q.sinceCompact = len(recs)
	return info, q.applyAll(recs, snapSeq)
}

// catchUpLocked applies the records other handles appended since this
// handle's last operation, or replays everything when one of them
// reset the log meanwhile. Callers hold q.mu and the journal lock.
func (q *WALQueue) catchUpLocked() error {
	recs, _, err := q.log.Tail()
	if errors.Is(err, wal.ErrReset) {
		_, err = q.replayLocked()
		return err
	}
	if err != nil {
		return err
	}
	q.sinceCompact += len(recs)
	return q.applyAll(recs, 0)
}

// applyAll replays the records past sequence number after.
func (q *WALQueue) applyAll(recs []wal.Record, after uint64) error {
	for _, rec := range recs {
		if rec.Seq <= after {
			continue // already folded into the snapshot
		}
		if err := q.apply(rec); err != nil {
			return fmt.Errorf("%w: %s: replay seq %d: %v", wal.ErrBadRecord, q.dir, rec.Seq, err)
		}
	}
	return nil
}

// apply replays one journal record onto the in-memory state.
func (q *WALQueue) apply(rec wal.Record) error {
	switch rec.Kind {
	case kindInit:
		var init recInit
		if err := json.Unmarshal(rec.Payload, &init); err != nil {
			return err
		}
		if init.Manifest.Fingerprint != q.mem.manifest.Fingerprint {
			return fmt.Errorf("init fingerprint %s vs %s", init.Manifest.Fingerprint, q.mem.manifest.Fingerprint)
		}
		return nil
	case kindPlan:
		var r recPlan
		if err := json.Unmarshal(rec.Payload, &r); err != nil {
			return err
		}
		return q.mem.restorePlan(r.Deltas)
	case kindGrant, kindSteal:
		var r recGrant
		if err := json.Unmarshal(rec.Payload, &r); err != nil {
			return err
		}
		return q.mem.restoreGrant(r.Lease)
	case kindHeartbeat:
		var r recHeartbeat
		if err := json.Unmarshal(rec.Payload, &r); err != nil {
			return err
		}
		return q.mem.restoreHeartbeat(r.Unit, r.Token, r.Expires)
	case kindSubmit:
		var r recSubmit
		if err := json.Unmarshal(rec.Payload, &r); err != nil {
			return err
		}
		return q.mem.restoreSubmit(r.Unit, r.Worker, r.Checkpoint, r.ElapsedNs)
	case kindPartial:
		var r recPartial
		if err := json.Unmarshal(rec.Payload, &r); err != nil {
			return err
		}
		return q.mem.restorePartial(r.Unit, r.Token, r.Checkpoint)
	case kindCancel:
		return q.mem.restoreCancel()
	case kindStrike:
		var r recStrike
		if err := json.Unmarshal(rec.Payload, &r); err != nil {
			return err
		}
		return q.mem.restoreStrike(r.Unit, r.Strikes, r.State, r.Reason)
	default:
		return fmt.Errorf("unknown record kind %d", rec.Kind)
	}
}

// journalSink implementation: stage records while the MemQueue
// mutation holds its lock; the public operation flushes them before
// acknowledging. All staging runs under q.mu (every path into q.mem
// goes through a WALQueue method).
func (q *WALQueue) stage(kind uint8, v any, durable bool) {
	payload, err := json.Marshal(v)
	if err != nil {
		q.bufErr = fmt.Errorf("dispatch: encode journal record kind %d: %w", kind, err)
		return
	}
	q.buf = append(q.buf, walRec{kind: kind, payload: payload, durable: durable})
}

func (q *WALQueue) journalPlan(deltas []PlanDelta) { q.stage(kindPlan, recPlan{Deltas: deltas}, true) }
func (q *WALQueue) journalGrant(l Lease, stolen bool) {
	kind := kindGrant
	if stolen {
		kind = kindSteal
	}
	q.stage(kind, recGrant{Lease: l}, true)
}
func (q *WALQueue) journalHeartbeat(unit int, token string, expires time.Time) {
	q.stage(kindHeartbeat, recHeartbeat{Unit: unit, Token: token, Expires: expires}, false)
}
func (q *WALQueue) journalSubmit(unit int, worker string, cp *resultio.Checkpoint, elapsedNs int64) {
	q.stage(kindSubmit, recSubmit{Unit: unit, Worker: worker, ElapsedNs: elapsedNs, Checkpoint: cp}, true)
}
func (q *WALQueue) journalPartial(unit int, token string, cp *resultio.Checkpoint) {
	q.stage(kindPartial, recPartial{Unit: unit, Token: token, Checkpoint: cp}, true)
}
func (q *WALQueue) journalCancel() { q.stage(kindCancel, nil, true) }
func (q *WALQueue) journalStrike(unit, strikes int, state, reason string) {
	q.stage(kindStrike, recStrike{Unit: unit, Strikes: strikes, State: state, Reason: reason}, true)
}

// usable gates journal access; callers hold q.mu.
func (q *WALQueue) usable() error {
	if q.closed {
		return fmt.Errorf("dispatch: queue %s: %w", q.dir, wal.ErrClosed)
	}
	if q.failed != nil {
		return fmt.Errorf("dispatch: queue %s: journal failed earlier: %w", q.dir, q.failed)
	}
	return nil
}

// lock serializes one operation against this handle's other callers
// and against every other handle, then catches up on the journal.
// A catch-up failure poisons the handle: its state may be half
// applied.
func (q *WALQueue) lock() error {
	q.mu.Lock()
	err := q.usable()
	if err == nil {
		err = q.log.Lock()
	}
	if err != nil {
		q.mu.Unlock()
		return err
	}
	if err := q.catchUpLocked(); err != nil {
		q.failed = err
		q.unlock()
		return err
	}
	return nil
}

func (q *WALQueue) unlock() {
	if err := q.log.Unlock(); err != nil {
		// A lock that will not release stalls every other handle;
		// closing the descriptor drops it, and poisons this one.
		q.failed = err
		_ = q.log.Close()
	}
	q.mu.Unlock()
}

// mutate runs one state transition through the caught-up MemQueue and
// journals it before returning. op's own error (ErrNoWork, a lost
// lease) comes back only after the flush: a refused operation can
// still have journaled side effects, such as a strike or a re-plan.
func (q *WALQueue) mutate(op func() error) error {
	if err := q.lock(); err != nil {
		return err
	}
	defer q.unlock()
	q.buf, q.bufErr = q.buf[:0], nil
	err := op()
	if ferr := q.flushLocked(); ferr != nil {
		return ferr
	}
	return err
}

// current returns the handle's state caught up with the journal, for
// a read. A closed or poisoned handle answers from memory, so a final
// report and checkpoint can still be written.
func (q *WALQueue) current() (*MemQueue, error) {
	q.mu.Lock()
	if q.usable() != nil {
		defer q.mu.Unlock()
		return q.mem, nil
	}
	q.mu.Unlock()
	if err := q.lock(); err != nil {
		return nil, err
	}
	defer q.unlock()
	return q.mem, nil
}

// flushLocked appends the staged records, fsyncing when any demands
// durability. A write failure poisons the handle: the in-memory state
// has already advanced past what the journal can replay, so serving
// on would acknowledge transitions a restart silently forgets.
func (q *WALQueue) flushLocked() error {
	if q.bufErr != nil {
		q.failed = q.bufErr
		return q.bufErr
	}
	if len(q.buf) == 0 {
		return nil
	}
	durable := false
	for _, r := range q.buf {
		if _, err := q.log.Append(r.kind, r.payload); err != nil {
			q.failed = err
			return err
		}
		durable = durable || r.durable
	}
	if durable {
		if err := q.log.Sync(); err != nil {
			q.failed = err
			return err
		}
	}
	q.sinceCompact += len(q.buf)
	q.buf = q.buf[:0]
	if q.sinceCompact >= q.compactEvery {
		// Best-effort: compaction failure leaves a longer journal, not
		// a wrong one — the next flush simply tries again.
		_ = q.compactLocked()
	}
	return nil
}

// compactLocked snapshots the full queue state and resets the log.
// Crash-safe in both windows: before the snapshot rename the old
// snapshot+journal still replay; after it but before the reset, the
// journal's surviving records carry sequence numbers at or below the
// snapshot's and replay skips them.
func (q *WALQueue) compactLocked() error {
	state := q.mem.snapshotState()
	payload, err := json.Marshal(walSnapshot{Manifest: q.mem.manifest, State: state})
	if err != nil {
		return err
	}
	if err := wal.WriteSnapshot(filepath.Join(q.dir, snapFile), q.log.LastSeq(), payload); err != nil {
		return err
	}
	if err := q.log.Reset(); err != nil {
		return err
	}
	q.sinceCompact = 0
	return nil
}

// Recovered reports how opening found the journal: a zero-value info
// (nil Err) means a clean replay; otherwise the sentinel behind the
// truncation back to the last consistent state.
func (q *WALQueue) Recovered() wal.RecoverInfo { return q.recovered }

// Close fsyncs and closes the handle's journal. Subsequent mutations
// fail with wal.ErrClosed; reads keep answering from memory so a
// final report and checkpoint can still be written.
func (q *WALQueue) Close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil
	}
	q.closed = true
	return q.log.Close()
}

// Manifest implements Queue.
func (q *WALQueue) Manifest() (Manifest, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.mem.Manifest()
}

// Acquire implements Queue; the grant (and any re-plan it triggered)
// is journaled and fsynced before the lease is returned.
func (q *WALQueue) Acquire(worker string) (Lease, error) {
	var l Lease
	err := q.mutate(func() (err error) {
		l, err = q.mem.Acquire(worker)
		return err
	})
	if err != nil {
		return Lease{}, err
	}
	return l, nil
}

// Heartbeat implements Queue; journaled without an fsync of its own
// (see the type comment for why that is safe).
func (q *WALQueue) Heartbeat(l Lease) error {
	return q.mutate(func() error { return q.mem.Heartbeat(l) })
}

// Submit implements Queue; the accepted checkpoint is journaled and
// fsynced before the worker hears "accepted".
func (q *WALQueue) Submit(l Lease, cp *resultio.Checkpoint, elapsed time.Duration) error {
	return q.mutate(func() error { return q.mem.Submit(l, cp, elapsed) })
}

// SavePartial implements Queue.
func (q *WALQueue) SavePartial(l Lease, cp *resultio.Checkpoint) error {
	return q.mutate(func() error { return q.mem.SavePartial(l, cp) })
}

// Fail implements Queue; the strike (and a possible quarantine) is
// journaled and fsynced before the worker hears "recorded".
func (q *WALQueue) Fail(l Lease, reason string) error {
	return q.mutate(func() error { return q.mem.Fail(l, reason) })
}

// Quarantined implements Queue.
func (q *WALQueue) Quarantined() ([]QuarantineEntry, error) {
	mem, err := q.current()
	if err != nil {
		return nil, err
	}
	return mem.Quarantined()
}

// Requeue implements Queue; the reset is journaled and fsynced.
func (q *WALQueue) Requeue(unit int) error {
	return q.mutate(func() error { return q.mem.Requeue(unit) })
}

// Drop implements Queue; the drop is journaled and fsynced.
func (q *WALQueue) Drop(unit int) error {
	return q.mutate(func() error { return q.mem.Drop(unit) })
}

// Failed returns the journal error that poisoned the handle, or nil.
// A poisoned handle rejects every mutation; the owner should reopen
// the directory (OpenWALQueue) to resume from the durable state —
// chaos tests use exactly that loop.
func (q *WALQueue) Failed() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.failed
}

// LoadPartial implements Queue.
func (q *WALQueue) LoadPartial(l Lease) (*resultio.Checkpoint, error) {
	mem, err := q.current()
	if err != nil {
		return nil, err
	}
	return mem.LoadPartial(l)
}

// Status implements Queue.
func (q *WALQueue) Status() (Status, error) {
	mem, err := q.current()
	if err != nil {
		return Status{}, err
	}
	return mem.Status()
}

// Merged implements Queue.
func (q *WALQueue) Merged() (*resultio.Checkpoint, error) {
	mem, err := q.current()
	if err != nil {
		return nil, err
	}
	return mem.Merged()
}

// Cancel stops the campaign durably: the cancel record is journaled
// and fsynced, so a reopened queue stays canceled.
func (q *WALQueue) Cancel() error {
	return q.mutate(func() error { return q.mem.Cancel() })
}

// Canceled reports whether the campaign was canceled. A handle that
// cannot read the journal answers from memory.
func (q *WALQueue) Canceled() bool {
	if mem, err := q.current(); err == nil {
		return mem.Canceled()
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.mem.Canceled()
}

// --- MemQueue replay plumbing ---
//
// The restore entry points apply journaled transitions directly: no
// clock reads, no token minting, no re-planning arithmetic — the
// record carries the resulting state, replay writes it down. They
// bypass the journal sink by construction, so replay never
// re-journals.

// queueState is a MemQueue's full serializable state, as captured by
// compaction snapshots.
type queueState struct {
	Units       []unitState `json:"units"`
	ReplanDirty bool        `json:"replanDirty,omitempty"`
	Canceled    bool        `json:"canceled,omitempty"`
	Cost        costState   `json:"cost"`
}

// unitState is one serialized unit slot.
type unitState struct {
	State       string               `json:"state"`
	Cells       []int                `json:"cells,omitempty"`
	Worker      string               `json:"worker,omitempty"`
	Token       string               `json:"token,omitempty"`
	Expires     time.Time            `json:"expires"`
	Done        *resultio.Checkpoint `json:"done,omitempty"`
	Partial     *resultio.Checkpoint `json:"partial,omitempty"`
	Strikes     int                  `json:"strikes,omitempty"`
	LastFailure string               `json:"lastFailure,omitempty"`
}

// snapshotState captures the queue's full state for a compaction
// snapshot. Checkpoint pointers are shared, not copied: accepted
// checkpoints are immutable.
func (q *MemQueue) snapshotState() queueState {
	q.mu.Lock()
	defer q.mu.Unlock()
	s := queueState{
		Units:       make([]unitState, len(q.units)),
		ReplanDirty: q.replanDirty,
		Canceled:    q.canceled,
		Cost:        q.cost.snapshot(),
	}
	for i := range q.units {
		u := &q.units[i]
		s.Units[i] = unitState{
			State:       u.state,
			Cells:       append([]int(nil), u.cells...),
			Worker:      u.worker,
			Token:       u.token,
			Expires:     u.expires,
			Done:        u.cp,
			Partial:     u.partial,
			Strikes:     u.strikes,
			LastFailure: u.lastFailure,
		}
	}
	return s
}

// restoreState replaces the queue's state with a snapshot's.
func (q *MemQueue) restoreState(s queueState) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.cost.restore(s.Cost); err != nil {
		return err
	}
	q.units = make([]memUnit, len(s.Units))
	for i, us := range s.Units {
		switch us.State {
		case UnitPending, UnitLeased, UnitDone, UnitRetired, UnitQuarantined, UnitDropped:
		default:
			return fmt.Errorf("unit %d: unknown state %q", i, us.State)
		}
		q.units[i] = memUnit{
			state:       us.State,
			cells:       append([]int(nil), us.Cells...),
			worker:      us.Worker,
			token:       us.Token,
			expires:     us.Expires,
			cp:          us.Done,
			partial:     us.Partial,
			strikes:     us.Strikes,
			lastFailure: us.LastFailure,
		}
	}
	q.replanDirty = s.ReplanDirty
	q.canceled = s.Canceled
	return nil
}

// restorePlan applies a journaled re-planning pass's slot deltas.
func (q *MemQueue) restorePlan(deltas []PlanDelta) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.replanDirty = false
	for _, d := range deltas {
		switch d.State {
		case UnitPending, UnitRetired:
		default:
			return fmt.Errorf("plan delta for unit %d: state %q", d.Unit, d.State)
		}
		switch {
		case d.Unit >= 0 && d.Unit < len(q.units):
			q.units[d.Unit] = memUnit{state: d.State, cells: d.Cells}
		case d.Unit == len(q.units):
			q.units = append(q.units, memUnit{state: d.State, cells: d.Cells})
		default:
			return fmt.Errorf("plan delta for unit %d of %d", d.Unit, len(q.units))
		}
	}
	return nil
}

// restoreGrant applies a journaled grant (or steal): the lease's
// worker, token and expiry land on the unit exactly as minted. Any
// stored partial survives — live grants keep it for resume too.
func (q *MemQueue) restoreGrant(l Lease) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if l.Unit < 0 || l.Unit >= len(q.units) {
		return fmt.Errorf("grant for unit %d of %d", l.Unit, len(q.units))
	}
	u := &q.units[l.Unit]
	if u.state == UnitDone || u.state == UnitRetired {
		return fmt.Errorf("grant for unit %d in state %q", l.Unit, u.state)
	}
	u.state = UnitLeased
	u.worker = l.Worker
	u.token = l.Token
	u.expires = l.Expires
	if len(l.Cells) > 0 {
		u.cells = append([]int(nil), l.Cells...)
	}
	return nil
}

// restoreHeartbeat applies a journaled lease extension.
func (q *MemQueue) restoreHeartbeat(unit int, token string, expires time.Time) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if unit < 0 || unit >= len(q.units) {
		return fmt.Errorf("heartbeat for unit %d of %d", unit, len(q.units))
	}
	u := &q.units[unit]
	if u.token != token {
		return fmt.Errorf("heartbeat for unit %d under a foreign token", unit)
	}
	u.state = UnitLeased
	u.expires = expires
	return nil
}

// restoreSubmit applies a journaled accepted submission, feeding the
// cost model the same observation the live path did.
func (q *MemQueue) restoreSubmit(unit int, worker string, cp *resultio.Checkpoint, elapsedNs int64) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if unit < 0 || unit >= len(q.units) {
		return fmt.Errorf("submit for unit %d of %d", unit, len(q.units))
	}
	u := &q.units[unit]
	if u.state == UnitRetired {
		return fmt.Errorf("submit for retired unit %d", unit)
	}
	u.state = UnitDone
	u.worker = worker
	u.token = ""
	u.cp = cp
	u.partial = nil
	q.cost.observe(u.cells, elapsedNs)
	if elapsedNs > 0 {
		q.replanDirty = true
	}
	return nil
}

// restorePartial applies a journaled intra-unit checkpoint.
func (q *MemQueue) restorePartial(unit int, token string, cp *resultio.Checkpoint) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if unit < 0 || unit >= len(q.units) {
		return fmt.Errorf("partial for unit %d of %d", unit, len(q.units))
	}
	u := &q.units[unit]
	if u.token != token {
		return fmt.Errorf("partial for unit %d under a foreign token", unit)
	}
	u.partial = cp
	return nil
}

// restoreStrike applies a journaled strike-state transition: the
// record carries the resulting strike count and unit state (pending,
// quarantined or dropped), so expiry strikes, worker failures,
// requeues and drops all replay the same way. The lease fields clear;
// when a steal followed the strike, the next grant record restores
// them.
func (q *MemQueue) restoreStrike(unit, strikes int, state, reason string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if unit < 0 || unit >= len(q.units) {
		return fmt.Errorf("strike for unit %d of %d", unit, len(q.units))
	}
	switch state {
	case UnitPending, UnitQuarantined, UnitDropped:
	default:
		return fmt.Errorf("strike for unit %d: state %q", unit, state)
	}
	u := &q.units[unit]
	if u.state == UnitDone || u.state == UnitRetired {
		return fmt.Errorf("strike for unit %d in state %q", unit, u.state)
	}
	u.state = state
	u.strikes = strikes
	u.lastFailure = reason
	u.worker, u.token = "", ""
	return nil
}

// restoreCancel applies a journaled campaign cancellation.
func (q *MemQueue) restoreCancel() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.canceled = true
	return nil
}
