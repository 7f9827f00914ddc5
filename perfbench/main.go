// Command perfbench is Nazar's end-to-end benchmark.
//
// An untraced run (--trace 0) starts cmd/nazard as a child process on
// loopback, with its write-ahead log on, and drives it from this process
// with the repo's own client packages (device, registry, transport,
// httpapi, wire). It checks the outputs and prints the end-to-end metrics.
//
// A traced run (--trace 1) serves the same cloud.Service in-process,
// replays the same generated inputs once without and once with spans
// around each layer's public entry points, and prints per-layer metrics.
//
// Usage (from the repository root; see perfbench/README.md):
//
//	bash perfbench/run.sh --workload drift_fix --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object
// {"correct":..., "attempted":..., "failed":..., "metrics":{...}}. A failed
// correctness check exits non-zero and prints no numbers.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workload is a runner and the number of freshly started servers an
// untraced run repeats its unit of work on. Each unit's gated time is a
// low order statistic of its tries (see lowQuartile), so more tries hold
// the numbers steadier: over five seeds the quartile spread of
// ingest_flood's throughput fell from 0.32 to 0.25 to 0.16 with one, two
// and three servers, each unit taken at its lowest. ingest_flood also
// repeats its batches on each server (see floodPassesB). The counts keep
// a run between 20 and 30 s on a 2-vCPU host (a server's set-up alone
// takes about 2.5 s), so that a run still ends in time when steal slows
// it down by half or more.
type workload struct {
	run     func(e *env) (*report, error)
	servers int
}

// workloads maps a workload name to its runner.
var workloads = map[string]workload{
	"ingest_flood": {runIngestFlood, 3},
	"drift_fix":    {runDriftFix, 3},
	"rca_highcard": {runRCAHighCard, 6},
}

// workloadOrder is the order --workload all runs them in.
var workloadOrder = []string{"ingest_flood", "drift_fix", "rca_highcard"}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	nazard   string
	workDir  string
	// forceFail fails the correctness check after the workload ran, so
	// the self-test can check the clean-up path.
	forceFail bool
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: ingest_flood, drift_fix, rca_highcard or all")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed (inputs only; nazard keeps its model seed)")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds per run; sets the fixed amount of work")
	flag.IntVar(&traceFlag, "trace", 0, "1 = in-process traced run printing per-layer metrics")
	flag.StringVar(&o.nazard, "nazard", filepath.Join(".bench_build", "bin", "nazard"), "nazard binary")
	flag.StringVar(&o.workDir, "work-dir", filepath.Join(".bench_build", "tmp"), "scratch directory for WAL dirs and traces")
	flag.BoolVar(&o.forceFail, "force-check-failure", false, "self-test: fail the correctness check after an untraced run")
	flag.Parse()
	o.trace = traceFlag != 0
	if o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fatal(errors.New("--seconds must be ≥ 1, --trace 0 or 1"))
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadOrder
	}
	for _, n := range names {
		if workloads[n].run == nil {
			fatal(fmt.Errorf("unknown workload %q", o.workload))
		}
	}

	// A signal stops the child nazard before exiting.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAllChildren()
		os.Exit(130)
	}()

	for _, n := range names {
		rep, err := runOne(n, o)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", n, err))
		}
		rep.print(n, o.trace)
	}
}

// runOne runs one workload in the requested mode.
func runOne(name string, o options) (*report, error) {
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	if o.trace {
		return tracedRun(name, o)
	}
	return untracedRun(name, o)
}

func fatal(err error) {
	stopAllChildren()
	fmt.Fprintln(os.Stderr, "perfbench: FAIL:", err)
	os.Exit(1)
}

// metric is one printed number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload run produces.
type report struct {
	metrics map[string]metric
	notes   []string // human-readable lines printed before the JSON line
	ops     *opLog
	// layer holds the per-layer counts the workload itself observes;
	// the traced run prints them.
	layer map[string]metric
	// headline is the summed time of the workload's headline operations
	// (the traced run compares it across its two passes).
	headline time.Duration
}

func newReport(ops *opLog) *report {
	return &report{metrics: map[string]metric{}, layer: map[string]metric{}, ops: ops}
}

func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *report) setLayer(name string, v float64, unit string) { r.layer[name] = metric{v, unit} }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes the human-readable lines, then every metric by name with
// its unit, then the JSON result line.
func (r *report) print(workload string, traced bool) {
	mode := "untraced"
	if traced {
		mode = "traced"
	}
	fmt.Printf("== %s (%s)\n", workload, mode)
	for _, n := range r.notes {
		fmt.Println("  " + n)
	}
	for _, line := range r.ops.lines() {
		fmt.Println("  " + line)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Printf("  %-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	attempted, failed := r.ops.totals()
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{true, attempted, failed, r.metrics}
	b, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// checkFinite rejects a report holding a NaN or infinite value: the
// result line must be valid JSON with every number measured.
func (r *report) checkFinite() error {
	var bad []string
	for n, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			bad = append(bad, n)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("non-finite metrics: %s", strings.Join(bad, ", "))
	}
	return nil
}
