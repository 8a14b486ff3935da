package dispatch_test

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"rowfuse/internal/core"
	"rowfuse/internal/dispatch"
	"rowfuse/internal/report"
)

// renderCampaign renders the acceptance-criterion outputs (Table 2 and
// Fig 4) with the regular, strict renderers.
func renderCampaign(t *testing.T, s *core.Study) []byte {
	t.Helper()
	var buf bytes.Buffer
	rows, err := s.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Table2(&buf, rows); err != nil {
		t.Fatal(err)
	}
	fig4, err := s.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Fig4(&buf, fig4); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// seedFromQueue folds the queue's merged checkpoint into a fresh study.
func seedFromQueue(t *testing.T, q dispatch.Queue) *core.Study {
	t.Helper()
	cp, err := q.Merged()
	if err != nil {
		t.Fatal(err)
	}
	cells, err := cp.CellMap()
	if err != nil {
		t.Fatal(err)
	}
	study := core.NewStudy(testConfig(t))
	if err := study.Seed(cells); err != nil {
		t.Fatal(err)
	}
	return study
}

// TestDispatchEndToEndKillOneWorker is the acceptance path of the
// distributed dispatch subsystem: a shared-directory campaign with
// three workers, one of which dies right after taking a lease (it
// never heartbeats and never submits). Its lease must expire and be
// re-granted to a surviving worker, and the fused result must render
// Table 2 / Fig 4 byte-identical to an unsharded Study.Run of the same
// config.
func TestDispatchEndToEndKillOneWorker(t *testing.T) {
	cfg := testConfig(t)
	single := core.NewStudy(cfg)
	if err := single.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := renderCampaign(t, single)

	const units = 4
	ttl := 400 * time.Millisecond
	dir := initSharedDir(t, dispatch.NewManifest(cfg, units, ttl))

	// The doomed worker: leases a unit and is killed — modelled
	// exactly as a crashed process, which simply stops touching the
	// directory. No heartbeat, no submit.
	doomed := openShared(t, dir)
	doomedLease, err := doomed.Acquire("doomed")
	if err != nil {
		t.Fatal(err)
	}

	// Three live workers (separate queue handles = separate
	// processes) drain the campaign, stealing the doomed unit once its
	// lease expires.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		submitted int
		firstErr  error
	)
	for w := 0; w < 3; w++ {
		name := []string{"alpha", "beta", "gamma"}[w]
		wq := openShared(t, dir)
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

	coord := openShared(t, dir)
	st, err := coord.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Drained() {
		t.Fatalf("campaign not drained: %+v", st)
	}
	// Re-planning may resize the units, so the live workers must have
	// submitted every unit there is now — the dead worker's included.
	if submitted != st.Units {
		t.Fatalf("live workers submitted %d units, want all %d (incl. the dead worker's re-granted unit)", submitted, st.Units)
	}
	// The dead worker's own lease is useless now.
	if err := doomed.Submit(doomedLease, checkpointForCells(t, dispatchManifest(t, coord), doomedLease.Cells), 0); err == nil {
		t.Fatal("dead worker's stale submit was accepted")
	}

	got := renderCampaign(t, seedFromQueue(t, coord))
	if !bytes.Equal(got, want) {
		t.Fatalf("distributed campaign rendering differs from the unsharded run:\n--- distributed ---\n%s\n--- single ---\n%s", got, want)
	}
}

func dispatchManifest(t *testing.T, q dispatch.Queue) dispatch.Manifest {
	t.Helper()
	m, err := q.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRenderPartialCoverage drives the live-report path: an empty
// campaign renders all-pending output, a half-submitted campaign is
// annotated partial, and a drained campaign reports complete coverage
// — never presenting partial data as final.
func TestRenderPartialCoverage(t *testing.T) {
	cfg := testConfig(t)
	m := dispatch.NewManifest(cfg, 2, time.Minute)
	q, err := dispatch.NewMemQueue(m)
	if err != nil {
		t.Fatal(err)
	}

	render := func() string {
		cp, err := q.Merged()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := dispatch.RenderPartial(&buf, m, cp); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	out := render()
	if !strings.Contains(out, "partial: 0 of 18 cells (0.0%)") || !strings.Contains(out, "pending") {
		t.Fatalf("empty campaign report lacks coverage annotation:\n%s", out)
	}

	// Submit unit 0 only: half the grid.
	l, err := q.Acquire("w1")
	if err != nil {
		t.Fatal(err)
	}
	cp, _, err := dispatch.RunUnitWork(context.Background(), m, dispatch.UnitWork{Unit: 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Submit(l, cp, 0); err != nil {
		t.Fatal(err)
	}
	out = render()
	if !strings.Contains(out, "partial: 9 of 18 cells (50.0%)") {
		t.Fatalf("half-complete report lacks coverage annotation:\n%s", out)
	}
	if !strings.Contains(out, "pending") {
		t.Fatalf("half-complete report should mark missing cells pending:\n%s", out)
	}

	// Submit the second unit: complete.
	l, err = q.Acquire("w2")
	if err != nil {
		t.Fatal(err)
	}
	cp, _, err = dispatch.RunUnitWork(context.Background(), m, dispatch.UnitWork{Unit: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Submit(l, cp, 0); err != nil {
		t.Fatal(err)
	}
	out = render()
	if !strings.Contains(out, "complete: 18 of 18 cells (100.0%)") {
		t.Fatalf("drained report not marked complete:\n%s", out)
	}
	if strings.Contains(out, "pending") {
		t.Fatalf("drained report still marks cells pending:\n%s", out)
	}
}
