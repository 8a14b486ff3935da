package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the subset of BENCHMARK.json the self-test checks
// the emitted metrics against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// runTiny runs one workload at self-test scale and parses the JSON
// result on the last line of its output.
func runTiny(t *testing.T, extra ...string) (result, error) {
	t.Helper()
	args := append([]string{"--seed", "3", "--seconds", "1", "--tiny", "--out", t.TempDir()}, extra...)
	var out bytes.Buffer
	err := run(args, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		t.Fatalf("%v: last line is not a result: %v\n%s", args, jerr, out.String())
	}
	return res, err
}

// TestSelfTest runs every workload at tiny scale, untraced and traced,
// and checks that exactly the metrics BENCHMARK.json names are emitted,
// each with its unit.
func TestSelfTest(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, perfbench defines %d", len(bf.Workloads), len(workloads))
	}
	for _, wl := range bf.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl.Name+"/trace="+trace, func(t *testing.T) {
				res, err := runTiny(t, "--workload", wl.Name, "--trace", trace)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d", res.Correct, res.Attempted)
				}
				if res.Failed != 0 {
					// A grid-service iteration can stall on an orphaned
					// prefetched lease; the deadline turns it into
					// failures rather than a hang.
					t.Logf("%d of %d operations failed", res.Failed, res.Attempted)
				}
				want := map[string]string{}
				if trace == "0" {
					for _, m := range bf.EndToEnd {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range bf.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				for name, unit := range want {
					got, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s not emitted", name)
					} else if got.Unit != unit {
						t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", name, got.Unit, unit)
					}
				}
				for name := range res.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s is not in BENCHMARK.json", name)
					}
				}
				if trace == "1" && wl.Name == "grid" {
					// The in-process grid never touches the coordinator.
					for name, v := range res.Metrics {
						if strings.HasPrefix(name, "dispatch.") || strings.HasPrefix(name, "wal.") ||
							strings.HasPrefix(name, "resultio.partial_") {
							if v.Value != 0 {
								t.Errorf("grid: %s = %v, want 0", name, v.Value)
							}
						}
					}
				}
				if trace == "1" && wl.Name == "grid-service" && res.Failed == 0 {
					for _, name := range []string{"dispatch.partials", "dispatch.submits", "wal.bytes", "dispatch.http_bytes"} {
						if res.Metrics[name].Value <= 0 {
							t.Errorf("grid-service: %s = %v, want > 0", name, res.Metrics[name].Value)
						}
					}
				}
			})
		}
	}
}

// TestWrongDigestFailsRun corrupts the rendered output of every
// workload and expects each run to report itself incorrect and fail.
func TestWrongDigestFailsRun(t *testing.T) {
	for name := range workloads {
		res, err := runTiny(t, "--workload", name, "--corrupt-output")
		if !errors.Is(err, errIncorrect) {
			t.Errorf("%s: run error %v, want %v", name, err, errIncorrect)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: correct=%v failed=%d, want an incorrect run with failures", name, res.Correct, res.Failed)
		}
	}
}

// TestTail checks the tail percentile: the 11th-largest sample, or the
// median while that sample would still lie below it.
func TestTail(t *testing.T) {
	var v []float64
	for i := 1; i <= 30; i++ {
		v = append(v, float64(i))
	}
	if got := tail(v); got != 20 {
		t.Errorf("tail of 1..30 = %v, want 20", got)
	}
	if got := tail(v[:20]); got != 10.5 {
		t.Errorf("tail of 1..20 = %v, want the median 10.5", got)
	}
}
