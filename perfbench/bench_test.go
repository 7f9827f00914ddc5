package main

// The benchmark's self-test runs every workload at a tiny size against a
// freshly built nazard and checks the output contract: every metric
// BENCHMARK.json lists is printed, finite, with its unit; the correctness
// checks pass; drift_fix repeats exactly for a seed; and the child nazard
// and its WAL directory are gone afterwards, also when a check fails.
//
// Run it from this directory with: go test .

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	benchBin, nazardBin string
	spec                struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		panic(err)
	}
	benchBin, nazardBin = filepath.Join(dir, "perfbench"), filepath.Join(dir, "nazard")
	for _, args := range [][]string{{"-o", benchBin, "."}, {"-o", nazardBin, "nazar/cmd/nazard"}} {
		cmd := exec.Command("go", append([]string{"build"}, args...)...)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			panic(err)
		}
	}
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	if err != nil {
		panic(err)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

type result struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

// run executes the benchmark at a tiny size and returns its stdout.
func run(t *testing.T, workDir string, args ...string) (string, error) {
	t.Helper()
	args = append([]string{"-nazard", nazardBin, "-work-dir", workDir, "-seconds", "1"}, args...)
	cmd := exec.Command(benchBin, args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	if err != nil {
		t.Logf("perfbench %v: %v\nstderr: %s", args, err, tail(errb.String()))
	}
	return out.String(), err
}

func tail(s string) string {
	if len(s) > 3000 {
		return s[len(s)-3000:]
	}
	return s
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}

// assertClean fails if a nazard or in-process WAL directory is left in
// workDir, or a nazard started for workDir is still running.
func assertClean(t *testing.T, workDir string) {
	t.Helper()
	for _, pat := range []string{"nazard-*", "inproc-*"} {
		left, _ := filepath.Glob(filepath.Join(workDir, pat))
		if len(left) > 0 {
			t.Errorf("left behind: %v", left)
		}
	}
	procs, _ := filepath.Glob("/proc/[0-9]*/cmdline")
	for _, p := range procs {
		b, err := os.ReadFile(p)
		if err == nil && bytes.Contains(b, []byte(nazardBin)) && bytes.Contains(b, []byte(workDir)) {
			t.Errorf("nazard still running: %s %q", p, b)
		}
	}
}

func TestWorkloadsPrintEveryMetric(t *testing.T) {
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			mode := "0"
			if traced {
				want, mode = spec.PerLayer, "1"
			}
			t.Run(w.Name+"/trace"+mode, func(t *testing.T) {
				workDir := t.TempDir()
				out, err := run(t, workDir, "-workload", w.Name, "-seed", "7", "-trace", mode)
				if err != nil {
					t.Fatal(err)
				}
				var r result
				if err := json.Unmarshal([]byte(lastLine(out)), &r); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, tail(out))
				}
				if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
					t.Errorf("correct %v attempted %d failed %d", r.Correct, r.Attempted, r.Failed)
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json lists %d", len(r.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := r.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("%s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("%s unit %q, want %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("%s = %v", m.Name, got.Value)
					}
					if !traced && got.Value <= 0 {
						t.Errorf("end-to-end %s = %v, want > 0", m.Name, got.Value)
					}
					// Every metric appears by name with its unit on a
					// human-readable line too.
					if !regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(m.Name) + `\s+\S+ ` + regexp.QuoteMeta(m.Unit) + `$`).MatchString(out) {
						t.Errorf("%s not printed with its unit", m.Name)
					}
				}
				assertClean(t, workDir)
			})
		}
	}
}

func TestTracedSplitMatchesDesign(t *testing.T) {
	shares := map[string]map[string]float64{}
	for _, w := range []string{"ingest_flood", "drift_fix", "rca_highcard"} {
		out, err := run(t, t.TempDir(), "-workload", w, "-seed", "3", "-trace", "1")
		if err != nil {
			t.Fatal(err)
		}
		var r result
		if err := json.Unmarshal([]byte(lastLine(out)), &r); err != nil {
			t.Fatal(err)
		}
		shares[w] = map[string]float64{}
		for name, m := range r.Metrics {
			if l, ok := strings.CutSuffix(name, ".self_share"); ok {
				shares[w][l] = m.Value
			}
		}
	}
	if s := shares["drift_fix"]["adapt"]; s < 0.5 {
		t.Errorf("adapt share of drift_fix time-to-fix = %.3f, want most of it", s)
	}
	if s := shares["drift_fix"]["fim"] + shares["drift_fix"]["rca"]; s >= 0.1 {
		t.Errorf("fim+rca share of drift_fix time-to-fix = %.3f, want < 0.1", s)
	}
	if s := shares["rca_highcard"]["fim"] + shares["rca_highcard"]["rca"]; s < 0.5 {
		t.Errorf("fim+rca share of rca_highcard analyze = %.3f, want most of it", s)
	}
	for _, l := range []string{"fim", "rca", "adapt"} {
		if s := shares["ingest_flood"][l]; s != 0 {
			t.Errorf("ingest_flood %s share = %v, want 0", l, s)
		}
	}
	if s := shares["rca_highcard"]["adapt"]; s > 0.05 {
		t.Errorf("rca_highcard adapt share = %.3f, want none", s)
	}
}

// TestDriftFixRepeats checks that drift_accuracy and the per-window cause
// lists are identical across runs of one seed.
func TestDriftFixRepeats(t *testing.T) {
	re := regexp.MustCompile(`drift_accuracy \S+|causes_digest \S+`)
	var first []string
	for i := 0; i < 2; i++ {
		out, err := run(t, t.TempDir(), "-workload", "drift_fix", "-seed", "5", "-trace", "0")
		if err != nil {
			t.Fatal(err)
		}
		got := re.FindAllString(out, -1)
		if len(got) != 2 {
			t.Fatalf("drift_accuracy / causes_digest not printed:\n%s", tail(out))
		}
		if i == 0 {
			first = got
		} else if strings.Join(got, " ") != strings.Join(first, " ") {
			t.Errorf("run 1 %v, run 2 %v", first, got)
		}
	}
}

// TestFailedCheckStopsNazard forces a correctness check to fail and
// checks the run exits non-zero, prints no numbers, and leaves no nazard
// or WAL directory behind.
func TestFailedCheckStopsNazard(t *testing.T) {
	workDir := t.TempDir()
	out, err := run(t, workDir, "-workload", "rca_highcard", "-seed", "1", "-trace", "0", "-force-check-failure")
	if err == nil {
		t.Fatal("run with a failing check exited 0")
	}
	if strings.Contains(out, `"metrics"`) {
		t.Errorf("a failed run printed a result:\n%s", tail(out))
	}
	assertClean(t, workDir)
}
