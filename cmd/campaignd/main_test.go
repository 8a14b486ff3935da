package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rowfuse/internal/core"
	"rowfuse/internal/dispatch"
	"rowfuse/internal/dispatch/registry"
	"rowfuse/internal/resultio"
)

// tinyArgs is a one-module Table 2 campaign (9 cells) that drains in
// well under a second.
func tinyArgs(extra ...string) []string {
	args := []string{"-exp", "table2", "-module", "S0", "-rows", "2", "-runs", "1", "-units", "2", "-ttl", "30s"}
	return append(args, extra...)
}

func TestRunFlagValidation(t *testing.T) {
	if err := run(context.Background(), []string{}, os.Stdout); err == nil || !strings.Contains(err.Error(), "exactly one") {
		t.Fatalf("no mode: %v", err)
	}
	if err := run(context.Background(), []string{"-dir", "x", "-listen", ":0"}, os.Stdout); err == nil || !strings.Contains(err.Error(), "exactly one") {
		t.Fatalf("both modes: %v", err)
	}
	if err := run(context.Background(), tinyArgs("-dir", t.TempDir(), "-init", "-exp", "nope"), os.Stdout); err == nil || !strings.Contains(err.Error(), "-exp") {
		t.Fatalf("bad exp: %v", err)
	}
	// Watch mode takes the campaign from the directory's manifest;
	// explicitly set config flags must be rejected, not ignored.
	if err := run(context.Background(), []string{"-dir", t.TempDir(), "-watch", "1s", "-rows", "500"}, os.Stdout); err == nil || !strings.Contains(err.Error(), "-rows") {
		t.Fatalf("watch-mode config flag: %v", err)
	}
}

// TestDirCampaignInitWorkWatch drives the full filesystem-mode
// lifecycle: init a campaign directory, drain it with an in-process
// worker, then watch until completion and check the fused checkpoint
// lands on disk.
func TestDirCampaignInitWorkWatch(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "campaign")
	out, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()

	if err := run(context.Background(), tinyArgs("-dir", dir, "-init"), out); err != nil {
		t.Fatal(err)
	}
	// Init refuses to clobber an existing campaign.
	if err := run(context.Background(), tinyArgs("-dir", dir, "-init"), out); err == nil {
		t.Fatal("second -init should fail")
	}

	q, err := dispatch.OpenWALQueue(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if _, err := dispatch.Work(context.Background(), q, dispatch.WorkerOptions{Name: "t"}); err != nil {
		t.Fatal(err)
	}

	merged := filepath.Join(t.TempDir(), "merged.json")
	if err := run(context.Background(), []string{"-dir", dir, "-watch", "10ms", "-out", merged}, out); err != nil {
		t.Fatal(err)
	}

	m, err := q.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	cp, err := resultio.ReadCheckpointFile(merged, m.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := cp.CellMap()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 9 {
		t.Fatalf("fused checkpoint has %d cells, want 9", len(cells))
	}

	if _, err := out.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{"campaign initialized", "campaign complete", "complete: 9 of 9 cells"} {
		if !strings.Contains(text, want) {
			t.Fatalf("watch output missing %q:\n%s", want, text)
		}
	}
}

// TestServeModeDrainsAndExits boots the HTTP coordinator on an
// ephemeral port, drains it with a real worker over the wire, and
// expects the server to write the fused checkpoint and exit cleanly.
func TestServeModeDrainsAndExits(t *testing.T) {
	outR, outW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer outR.Close()
	merged := filepath.Join(t.TempDir(), "merged.json")

	runErr := make(chan error, 1)
	go func() {
		defer outW.Close()
		runErr <- run(context.Background(), tinyArgs("-listen", "127.0.0.1:0", "-linger", "50ms", "-out", merged), outW)
	}()

	// Scrape the chosen address from the server's banner.
	var addr string
	sc := bufio.NewScanner(outR)
	lines := make(chan string, 64)
	go func() {
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	deadline := time.After(30 * time.Second)
	for addr == "" {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("server exited before listening: %v", <-runErr)
			}
			if rest, found := strings.CutPrefix(line, "coordinator listening on "); found {
				addr = rest
			}
		case <-deadline:
			t.Fatal("no listening banner within 30s")
		}
	}

	c, err := dispatch.Dial("http://"+addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dispatch.Work(context.Background(), c, dispatch.WorkerOptions{Name: "wire"}); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-runErr:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not exit after the campaign drained")
	}
	if _, err := resultio.ReadCheckpointFile(merged, ""); err != nil {
		t.Fatal(err)
	}
}

// runHarness captures a backgrounded run()'s output and exit error.
type runHarness struct {
	runErr chan error
	done   chan struct{}
	mu     sync.Mutex
	lines  []string
}

// output waits until the pipe reader hits EOF (run has returned and
// closed its end), so the full transcript is on record.
func (h *runHarness) output() string {
	select {
	case <-h.done:
	case <-time.After(30 * time.Second):
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return strings.Join(h.lines, "\n")
}

// startCampaignd launches run() in the background and scrapes the
// chosen listen address off the banner line starting with prefix.
func startCampaignd(t *testing.T, ctx context.Context, args []string, prefix string) (string, *runHarness) {
	t.Helper()
	outR, outW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { outR.Close() })
	h := &runHarness{runErr: make(chan error, 1), done: make(chan struct{})}
	go func() {
		defer outW.Close()
		h.runErr <- run(ctx, args, outW)
	}()
	addrCh := make(chan string, 1)
	go func() {
		defer close(h.done)
		sc := bufio.NewScanner(outR)
		for sc.Scan() {
			line := sc.Text()
			h.mu.Lock()
			h.lines = append(h.lines, line)
			h.mu.Unlock()
			if rest, found := strings.CutPrefix(line, prefix); found {
				select {
				case addrCh <- rest:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return addr, h
	case <-h.done:
		t.Fatalf("campaignd exited before its banner: %v", <-h.runErr)
	case <-time.After(30 * time.Second):
		t.Fatal("no listening banner within 30s")
	}
	return "", nil
}

// oneGrant hands out a single lease and then reports the campaign
// drained, so a stock worker submits exactly one unit and stops —
// leaving the coordinator mid-campaign for a restart to resume.
type oneGrant struct {
	dispatch.Queue
	granted bool
}

func (o *oneGrant) Acquire(worker string) (dispatch.Lease, error) {
	if o.granted {
		return dispatch.Lease{}, dispatch.ErrDrained
	}
	l, err := o.Queue.Acquire(worker)
	if err == nil {
		o.granted = true
	}
	return l, err
}

// TestServeModeGracefulShutdownAndResume interrupts a WAL-backed
// single-campaign coordinator mid-campaign (context cancellation, the
// same path SIGINT/SIGTERM take) and expects a clean exit, then
// restarts over the same state directory and expects the submitted
// unit to survive and the remainder to drain to a complete campaign.
func TestServeModeGracefulShutdownAndResume(t *testing.T) {
	state := filepath.Join(t.TempDir(), "state")
	merged := filepath.Join(t.TempDir(), "merged.json")

	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	addr, h1 := startCampaignd(t, ctx1, tinyArgs("-listen", "127.0.0.1:0", "-state", state),
		"coordinator listening on ")

	c, err := dispatch.Dial("http://"+addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := dispatch.Work(context.Background(), &oneGrant{Queue: c}, dispatch.WorkerOptions{Name: "first-shift"}); err != nil || n != 1 {
		t.Fatalf("first shift: %d units, %v", n, err)
	}

	cancel1()
	select {
	case err := <-h1.runErr:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator did not exit on shutdown")
	}
	if !strings.Contains(h1.output(), "shutting down: flushing the campaign journal") {
		t.Fatalf("no shutdown notice in output:\n%s", h1.output())
	}

	// The restart takes its campaign from the journal, so config flags
	// stay home; only serving knobs are allowed.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	addr2, h2 := startCampaignd(t, ctx2,
		[]string{"-listen", "127.0.0.1:0", "-state", state, "-linger", "50ms", "-out", merged},
		"coordinator listening on ")

	c2, err := dispatch.Dial("http://"+addr2, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c2.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Done < 1 {
		t.Fatalf("restart lost the submitted unit: %+v", st)
	}
	if _, err := dispatch.Work(context.Background(), c2, dispatch.WorkerOptions{Name: "second-shift"}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-h2.runErr:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("resumed coordinator did not exit after draining")
	}

	cp, err := resultio.ReadCheckpointFile(merged, "")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := cp.CellMap()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 9 {
		t.Fatalf("fused checkpoint has %d cells, want 9", len(cells))
	}
}

// TestServiceModeHostsCampaignsAndShutsDown boots the multi-campaign
// service, creates a campaign over the wire the way the banner's curl
// hint describes, drains it with a token-bearing worker, and expects
// a clean signal-style shutdown.
func TestServiceModeHostsCampaignsAndShutsDown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, h := startCampaignd(t, ctx,
		[]string{"-service", "-listen", "127.0.0.1:0", "-state", t.TempDir()},
		"campaign service listening on ")

	cfg, err := core.NewCampaignSpecBuilder(
		core.WithExp("table2"), core.WithModule("S0"), core.WithScale(2, 1, 1)).StudyConfig()
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(registry.CreateRequest{Campaign: dispatch.NewCampaignSpec(cfg), Units: 2, TTLMs: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+addr+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %s", resp.Status)
	}
	var created registry.CreateResponse
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}

	c, err := dispatch.DialCampaign("http://"+addr, created.ID, created.Token, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := dispatch.Work(context.Background(), c, dispatch.WorkerOptions{Name: "svc-worker"}); err != nil || n < 1 {
		t.Fatalf("worker: %d units, %v", n, err)
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Drained() {
		t.Fatalf("campaign not drained: %+v", st)
	}

	cancel()
	select {
	case err := <-h.runErr:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("service did not exit on shutdown")
	}
	if !strings.Contains(h.output(), "flushing campaign journals") {
		t.Fatalf("no shutdown notice:\n%s", h.output())
	}
}
