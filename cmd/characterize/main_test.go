package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rowfuse/internal/core"
	"rowfuse/internal/dispatch"
	"rowfuse/internal/resultio"
)

// capture redirects stdout around fn and returns what it printed.
func capture(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	outCh := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(r)
		outCh <- string(b)
	}()
	runErr := fn()
	w.Close()
	os.Stdout = old
	out := <-outCh
	r.Close()
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}
	return out
}

func TestRunTable1(t *testing.T) {
	out := capture(t, func() error { return run([]string{"-exp", "table1"}) })
	if !strings.Contains(out, "84 chips") {
		t.Errorf("table1 output missing chip total:\n%s", out)
	}
}

func TestRunTable2SingleModule(t *testing.T) {
	out := capture(t, func() error {
		return run([]string{"-exp", "table2", "-module", "S2", "-rows", "4", "-runs", "1"})
	})
	if !strings.Contains(out, "S2") || !strings.Contains(out, "ACmin measured") {
		t.Errorf("table2 output malformed:\n%s", out)
	}
}

func TestRunTempSweep(t *testing.T) {
	out := capture(t, func() error {
		return run([]string{"-exp", "tempsweep", "-module", "S2", "-rows", "3"})
	})
	if !strings.Contains(out, "Temperature sweep") {
		t.Errorf("tempsweep output malformed:\n%s", out)
	}
}

func TestRunDataPatternSweep(t *testing.T) {
	out := capture(t, func() error {
		return run([]string{"-exp", "datapattern", "-module", "S2", "-rows", "3"})
	})
	if !strings.Contains(out, "Data-pattern sweep") || !strings.Contains(out, "checkerboard") {
		t.Errorf("datapattern output malformed:\n%s", out)
	}
}

func TestRunCSVAndJSON(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "archive.json")
	capture(t, func() error {
		return run([]string{
			"-exp", "all", "-module", "M4", "-rows", "3", "-runs", "1",
			"-csv", dir, "-json", jsonPath,
		})
	})
	for _, f := range []string{"fig4.csv", "fig5.csv", "fig6.csv", "table2.csv", "archive.json"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("expected output file %s: %v", f, err)
		}
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"version": 1`) {
		t.Error("archive missing version")
	}
}

func TestRunRejectsUnknownModule(t *testing.T) {
	if err := run([]string{"-module", "Z9"}); err == nil {
		t.Error("unknown module accepted")
	}
}

func TestRunJSONRequiresAll(t *testing.T) {
	if err := run([]string{"-exp", "fig4", "-module", "M4", "-rows", "2", "-runs", "1", "-json", filepath.Join(t.TempDir(), "a.json")}); err == nil {
		t.Error("-json with -exp fig4 accepted")
	}
}

func TestRunShardMergeMatchesUnsharded(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-exp", "all", "-module", "M4", "-rows", "3", "-runs", "1"}
	var paths []string
	for i := 1; i <= 3; i++ {
		path := filepath.Join(dir, "s"+string(rune('0'+i))+".json")
		paths = append(paths, path)
		capture(t, func() error {
			return run(append(append([]string{}, base...),
				"-shard", string(rune('0'+i))+"/3", "-checkpoint", path))
		})
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("shard %d wrote no checkpoint: %v", i, err)
		}
	}
	merged := capture(t, func() error {
		return run(append(append([]string{}, base...), "-merge", strings.Join(paths, ",")))
	})
	single := capture(t, func() error { return run(base) })
	if merged != single {
		t.Errorf("merged rendering differs from unsharded run:\n--- merged ---\n%s\n--- single ---\n%s", merged, single)
	}
}

func TestRunResumeFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.json")
	args := []string{"-exp", "all", "-module", "M4", "-rows", "3", "-runs", "1", "-checkpoint", path}
	first := capture(t, func() error { return run(args) })
	// Resuming over the complete checkpoint recomputes nothing and
	// renders identically.
	resumed := capture(t, func() error { return run(append(append([]string{}, args...), "-resume")) })
	if first != resumed {
		t.Errorf("resumed rendering differs:\n%s\nvs\n%s", resumed, first)
	}
	// Resume under a different config must refuse the checkpoint.
	bad := []string{"-exp", "all", "-module", "M4", "-rows", "4", "-runs", "1", "-checkpoint", path, "-resume"}
	if err := run(bad); err == nil {
		t.Error("config-mismatched resume accepted")
	}
}

func TestRunShardOneOfOneBehavesLikeAShard(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s1.json")
	base := []string{"-exp", "all", "-module", "M4", "-rows", "3", "-runs", "1"}
	// A degenerate 1/1 shard (scripts templating i/n with n=1) still
	// only checkpoints; tables appear at -merge time.
	out := capture(t, func() error {
		return run(append(append([]string{}, base...), "-shard", "1/1", "-checkpoint", path))
	})
	if out != "" {
		t.Errorf("-shard 1/1 rendered to stdout:\n%s", out)
	}
	merged := capture(t, func() error {
		return run(append(append([]string{}, base...), "-merge", path))
	})
	single := capture(t, func() error { return run(base) })
	if merged != single {
		t.Error("merge of the 1/1 shard differs from the unsharded run")
	}
}

func TestRunResumeRejectsWrongShardFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s1.json")
	base := []string{"-exp", "all", "-module", "M4", "-rows", "3", "-runs", "1"}
	capture(t, func() error {
		return run(append(append([]string{}, base...), "-shard", "1/3", "-checkpoint", path))
	})
	// Resuming shard 2/3 from shard 1/3's file must refuse (it would
	// pollute the file and double-count cells at merge time).
	if err := run(append(append([]string{}, base...), "-shard", "2/3", "-checkpoint", path, "-resume")); err == nil {
		t.Error("cross-shard resume accepted")
	}
	// Unsharded resume from a shard file must refuse too.
	if err := run(append(append([]string{}, base...), "-checkpoint", path, "-resume")); err == nil {
		t.Error("unsharded resume from a shard checkpoint accepted")
	}
}

func TestRunMergeRejectsIncompleteGrid(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-exp", "all", "-module", "M4", "-rows", "3", "-runs", "1"}
	var paths []string
	for i := 1; i <= 2; i++ {
		path := filepath.Join(dir, "s"+string(rune('0'+i))+".json")
		paths = append(paths, path)
		capture(t, func() error {
			return run(append(append([]string{}, base...),
				"-shard", string(rune('0'+i))+"/3", "-checkpoint", path))
		})
	}
	// Only 2 of 3 shards: rendering would fail deep in an extractor, so
	// the merge must refuse up front.
	err := run(append(append([]string{}, base...), "-merge", strings.Join(paths, ",")))
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("incomplete merge err = %v, want a missing-shard complaint", err)
	}
	// The same shard listed twice would double-count its cells; the
	// overlap error must name the offending file.
	dup := strings.Join([]string{paths[0], paths[0], paths[1]}, ",")
	err = run(append(append([]string{}, base...), "-merge", dup))
	if err == nil || !strings.Contains(err.Error(), "listed twice") {
		t.Errorf("duplicate-shard merge err = %v, want an overlap complaint", err)
	}
	if err == nil || !strings.Contains(err.Error(), paths[0]) {
		t.Errorf("duplicate-shard merge err = %v, want it to name %s", err, paths[0])
	}
}

func TestRunShardFlagValidation(t *testing.T) {
	for name, args := range map[string][]string{
		"shard without checkpoint": {"-exp", "all", "-module", "M4", "-shard", "1/2"},
		"shard with merge":         {"-exp", "all", "-module", "M4", "-shard", "1/2", "-checkpoint", "x.json", "-merge", "a.json"},
		"bad shard spec":           {"-exp", "all", "-module", "M4", "-shard", "5/2", "-checkpoint", "x.json"},
		"resume without file flag": {"-exp", "all", "-module", "M4", "-resume"},
		"merge with resume":        {"-exp", "all", "-module", "M4", "-merge", "a.json", "-resume"},
		"shard on tempsweep":       {"-exp", "tempsweep", "-module", "M4", "-shard", "1/2", "-checkpoint", "x.json"},
		"merge missing file":       {"-exp", "all", "-module", "M4", "-merge", "/does/not/exist.json"},
		"shard with json":          {"-exp", "all", "-module", "M4", "-shard", "1/2", "-checkpoint", "x.json", "-json", "out.json"},
		"shard with csv":           {"-exp", "all", "-module", "M4", "-shard", "1/2", "-checkpoint", "x.json", "-csv", "out"},
	} {
		if err := run(args); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestRunHCDist(t *testing.T) {
	out := capture(t, func() error {
		return run([]string{"-exp", "hcdist", "-module", "S2", "-rows", "4"})
	})
	if !strings.Contains(out, "RowHammer") || !strings.Contains(out, "mean=") {
		t.Errorf("hcdist output malformed:\n%s", out)
	}
}

func TestRunWorkerFlagValidation(t *testing.T) {
	for _, extra := range [][]string{
		{"-shard", "1/2"},
		{"-checkpoint", "x.json"},
		{"-merge", "a.json"},
		{"-resume"},
		{"-json", "out.json"},
		{"-csv", "out"},
		// Config flags would be silently overridden by the manifest;
		// explicitly setting one must be rejected, not ignored.
		{"-rows", "1000"},
		{"-temp", "85"},
		{"-exp", "table2"},
		{"-runs", "5"},
	} {
		args := append([]string{"-worker", t.TempDir()}, extra...)
		if err := run(args); err == nil || !strings.Contains(err.Error(), extra[0]) {
			t.Errorf("%v: want a conflict error naming %s, got %v", extra, extra[0], err)
		}
	}
}

// TestRunWorkerDrainsDirCampaign points characterize -worker at a
// shared campaign directory and expects it to submit every unit; the fused
// result must then render through -merge with the matching flags,
// byte-identical to a plain run.
func TestRunWorkerDrainsDirCampaign(t *testing.T) {
	cfgFlags := []string{"-exp", "table2", "-module", "M4", "-rows", "3", "-runs", "1"}
	dir := filepath.Join(t.TempDir(), "campaign")
	cfg, err := studyConfigForTest()
	if err != nil {
		t.Fatal(err)
	}
	created, err := dispatch.CreateWALQueue(dir, dispatch.NewManifest(cfg, 3, 30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if err := created.Close(); err != nil {
		t.Fatal(err)
	}
	capture(t, func() error { return run([]string{"-worker", dir, "-worker-name", "tw"}) })

	q, err := dispatch.OpenWALQueue(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	st, err := q.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Drained() {
		t.Fatalf("worker left the campaign undrained: %+v", st)
	}
	cp, err := q.Merged()
	if err != nil {
		t.Fatal(err)
	}
	merged := filepath.Join(t.TempDir(), "merged.json")
	if err := resultio.WriteCheckpointFile(merged, cp); err != nil {
		t.Fatal(err)
	}
	viaMerge := capture(t, func() error {
		return run(append(append([]string{}, cfgFlags...), "-merge", merged))
	})
	plain := capture(t, func() error { return run(cfgFlags) })
	if viaMerge != plain {
		t.Errorf("worker campaign rendering differs from a plain run:\n--- merge ---\n%s\n--- plain ---\n%s", viaMerge, plain)
	}
}

// studyConfigForTest mirrors the campaign config run() builds for
// "-exp table2 -module M4 -rows 3 -runs 1", so tests can mint a
// manifest with the fingerprint a -merge under those flags expects.
// It goes through the same core.CampaignSpecBuilder assembly run() uses.
func studyConfigForTest() (core.StudyConfig, error) {
	return core.NewCampaignSpecBuilder(
		core.WithExp("table2"), core.WithModule("M4"), core.WithScale(3, 1, 1)).StudyConfig()
}
