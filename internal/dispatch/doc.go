// Package dispatch turns a core.StudyConfig into a queue of leased
// shard work units so a fleet of workers can drain one campaign
// without a human handing out -shard i/n assignments or babysitting
// crashed processes.
//
// A campaign is described by a Manifest: the serializable campaign
// configuration (the coordinator is the single source of config truth
// — workers reconstruct core.StudyConfig from the manifest, so the
// config fingerprint cannot drift between machines), the number of
// work units the cell grid is partitioned into via core.ShardPlan, and
// the lease TTL. Workers acquire time-bounded leases on units, extend
// them with heartbeats while the shard runs, and submit the shard's
// checkpoint when done. A lease whose worker stops heartbeating (a
// crashed or partitioned machine) expires and the unit is re-granted
// to the next worker that asks — work stealing from dead workers.
// Shard runs are deterministic, so a unit computed twice (the original
// worker was slow, not dead) folds to the same bytes either way;
// execution is at-least-once, folding is exactly-once.
//
// Dispatch is cost-aware. Every submission reports the wall time the
// worker spent, and the queues fold it into a per-cell cost model
// (costModel: die-count priors refined by per-(dies, pattern) EWMAs).
// MemQueue re-plans the still-pending, unleased units after each
// observation so their expected costs equalize: units holding fat
// 8/16-die cells split finer, cheap cells coalesce, and the campaign
// drains without a straggler tail. Among pending units it grants the
// most expensive first (LPT ordering).
//
// Workers also write intra-unit checkpoints: the completed cells of
// the unit in flight, stored at the queue under the lease. When a
// lease expires and is re-granted, the new holder resumes from the
// dead worker's last partial instead of recomputing the whole unit.
// Execution stays at-least-once and folding exactly-once — partials
// hold only whole-cell aggregates, which are deterministic, so a
// resumed unit's final checkpoint is byte-identical to a from-scratch
// run.
//
// One state machine, MemQueue, implements the lease lifecycle;
// everything else wraps it:
//
//   - WALQueue journals every MemQueue transition to a write-ahead
//     log in a directory, so a restart replays the exact state. The
//     directory may be opened by many handles at once — one per
//     worker process on a shared filesystem, with no server at all.
//     Every operation, reads included, takes an exclusive flock(2) on
//     the journal, applies the records other handles appended since
//     its last operation (a full replay after another handle's
//     compaction, which the journal header's generation counter
//     reveals), runs through MemQueue, appends and unlocks. On NFS,
//     flock is emulated with byte-range locks and needs a working lock
//     manager; a nolock mount makes the lock local to one client, and
//     the directory must then not be shared between machines.
//     Directories made by older builds, which coordinated through
//     per-unit sidecar files, cannot be opened; their done_*.json
//     files are ordinary checkpoints and still merge through
//     characterize -merge.
//   - NewHandler serves any Queue over HTTP (cmd/campaignd serves a
//     MemQueue or WALQueue); Client speaks the same protocol from the
//     worker side.
//
// A worker (Work) holds one lease at a time: acquire, load the
// partial, run under one heartbeat goroutine, submit, repeat. Dial and
// Work share one rule for failed queue calls. Final, ending the worker
// at once: resultio.ErrConfigMismatch, resultio.ErrBadCheckpoint,
// ErrCanceled, ErrUnknownCampaign, ErrBadCampaignToken and any other
// 4xx answer; a heartbeat that gets one cancels the unit. Retried:
// transport errors, 5xx answers and errors from in-process queues.
//
// Submitted checkpoints are validated against the manifest fingerprint
// and the unit's shard plan before they are accepted, and the rolling
// merged state is folded with resultio's overlap-checked merge, so a
// duplicate or foreign checkpoint can never silently double-count
// observations.
//
// # Failure model
//
// The queue distinguishes three escalating kinds of trouble:
//
//   - Retried: a lease that expires (worker crashed, partitioned, or
//     just slow) is re-granted to the next worker — this is the normal
//     work-stealing path and costs the campaign nothing but time.
//     Likewise a worker that reports a unit failure via Fail releases
//     the lease for the next taker.
//   - Quarantined: trouble that repeats is treated as the unit's
//     fault, not the worker's. Every expiry and every Fail is a
//     strike; at Manifest.MaxStrikes (DefaultMaxStrikes when unset)
//     the unit moves to a dead-letter state — UnitQuarantined — and is
//     no longer granted, so a poison unit (one whose input reliably
//     wedges or crashes solvers) burns a bounded number of grants
//     fleet-wide instead of hanging the campaign forever. Strikes and
//     quarantine transitions are journaled (WALQueue), so the ledger
//     survives coordinator kill-9 and restart. Workers bound their exposure
//     with WorkerOptions.UnitTimeout: a wedged shard run is cancelled
//     and converted into a reported Fail, and a panicking runner is
//     recovered and reported the same way.
//   - Degraded: a campaign whose every non-quarantined unit is done
//     drains (Status.Drained) rather than hanging, and reports mark it
//     Degraded. Renderings annotate the missing cells as "quarantined"
//     — distinct from "pending", which means work is still coming —
//     and the coverage line carries the quarantined-cell count, so a
//     partial report is never mistaken for a complete one.
//
// Operators inspect and resolve the dead-letter ledger with
// Quarantined, Requeue (clear strikes, grant again — for trouble that
// turned out environmental), and Drop (give up on the unit for good;
// late results are refused). A quarantined-but-not-dropped unit whose
// deterministic result nevertheless arrives late is completed and
// leaves the ledger — completing beats dead-lettering.
//
// The failure paths themselves are tested with internal/faultpoint:
// named injection points (wal.append, wal.sync, wal.snapshot,
// http.server, http.client, registry.op) sit
// on every failure-prone seam, cost one atomic load when disarmed, and
// fire on a deterministic seeded schedule when a test (or
// ROWFUSE_FAULTPOINTS) arms one — see the chaos suite in
// chaos_test.go for the end-to-end usage.
package dispatch
