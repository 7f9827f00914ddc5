package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"slices"
	"sort"
	"sync"
	"time"

	"nazar/internal/httpapi"
	"nazar/internal/imagesim"
	"nazar/internal/nn"
)

// env is what a workload sees. The workload code is the same in the
// untraced run (nazard is a child process) and the traced run (the
// service is in-process and tr is set).
type env struct {
	opt   options
	url   string
	world *imagesim.World
	base  *nn.Network // the base model pulled at set-up
	ops   *opLog
	tr    *tracer   // nil when untraced
	proc  procProbe // the process serving url
	// scale multiplies every workload's fixed amount of work; it is
	// --seconds divided by the seconds each size constant was set for.
	scale float64
	// reps is how many times the workload repeats its unit of work, each
	// on a freshly started server: the workload's servers in untraced
	// runs, 1 in process. Wall-clock metrics take each unit of work at
	// its lower quartile over its tries (see lowQuartile).
	reps int
	// restart, set in untraced runs, replaces the child with a freshly
	// started nazard (its set-up time is one more setup_s sample).
	restart func() error
}

// fresh starts repetition r: every repetition after the first runs on a
// freshly started server.
func (e *env) fresh(r int) error {
	if r == 0 {
		return nil
	}
	return e.restart()
}

// api returns a thin client with its own connection pool.
func (e *env) api() *httpapi.Client {
	c := httpapi.NewClient(e.url)
	c.HTTP = &http.Client{Timeout: 60 * time.Second, Transport: e.roundTripper()}
	return c
}

// roundTripper returns the transport every client of this run uses: a
// fresh pool of connections, wrapped with trace propagation when traced.
func (e *env) roundTripper() http.RoundTripper {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = 4
	if e.tr == nil {
		return t
	}
	return &traceRoundTripper{next: t}
}

// serverCPU returns the serving process's CPU seconds.
func (e *env) serverCPU() float64 {
	s, err := e.proc.cpuSeconds()
	if err != nil {
		return math.NaN()
	}
	return s
}

// scaled returns n scaled by the run length, at least lo.
func (e *env) scaled(n, lo int) int {
	return max(int(math.Round(float64(n)*e.scale)), lo)
}

// opLog counts attempted, succeeded and failed operations per kind.
type opLog struct {
	mu sync.Mutex
	m  map[string]*opCount
}

type opCount struct{ attempted, succeeded, failed int64 }

func newOpLog() *opLog { return &opLog{m: map[string]*opCount{}} }

// record counts one operation of kind and returns err unchanged.
func (l *opLog) record(kind string, err error) error {
	var f int64
	if err != nil {
		f = 1
	}
	l.add(kind, 1, f)
	if err != nil {
		return fmt.Errorf("%s: %w", kind, err)
	}
	return nil
}

// add counts attempted operations of kind, failed of which failed.
func (l *opLog) add(kind string, attempted, failed int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := l.m[kind]
	if c == nil {
		c = &opCount{}
		l.m[kind] = c
	}
	c.attempted += attempted
	c.failed += failed
	c.succeeded += attempted - failed
}

func (l *opLog) totals() (attempted, failed int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.m {
		attempted += c.attempted
		failed += c.failed
	}
	return attempted, failed
}

// lines renders the per-kind accounting and the error rate.
func (l *opLog) lines() []string {
	l.mu.Lock()
	kinds := make([]string, 0, len(l.m))
	for k := range l.m {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var out []string
	for _, k := range kinds {
		c := l.m[k]
		out = append(out, fmt.Sprintf("op %-16s attempted %8d succeeded %8d failed %d", k, c.attempted, c.succeeded, c.failed))
	}
	l.mu.Unlock()
	a, f := l.totals()
	out = append(out, fmt.Sprintf("error_rate %.6g fraction (failed %d / attempted %d)", ratio(float64(f), float64(a)), f, a))
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile returns the q-quantile of xs (nearest rank, xs unsorted).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// gatedTail is the percentile latency_tail_ms reports on every workload.
// Higher ones did not hold still on the shared 2-vCPU host: the p90 of
// ingest_flood's batch round trip sits on the edge between batches that
// overlap one of nazard's GC cycles and those that do not, and moved by
// 43% between seeds; drift_fix's 16 windows hold no p90 at all.
const gatedTail = 0.75

// tailQuantile is the highest percentile with at least ten samples
// beyond it, capped at p90, for the human-readable lines.
func tailQuantile(n int) float64 {
	q := 1 - 10/float64(n)
	if q > 0.9 {
		q = 0.9
	}
	if q < 0.5 {
		q = 0.5
	}
	return math.Floor(q*100) / 100
}

// lowQuartile returns each unit of work's lower-quartile time over its
// tries in reps, which ran the same inputs on freshly started servers
// (ingest_flood: also several times on each): the lowest of up to four
// tries, the second lowest of five to eight, and so on. A unit is one
// batch, window or analysis. The host is a shared 2-vCPU virtual machine
// whose hypervisor at times takes a third of the CPU time away (steal),
// in bursts of a second or so, and stolen time only ever slows a unit
// down; so a low order statistic of a unit's tries estimates the
// program's speed as long as a quarter of them missed every burst. The
// lowest try alone moves with the rare try that ran unusually fast: over
// eight runs on a quiet host, the quartile spread of rca_highcard's
// analyze p50 was 0.107 with the lowest of six tries and 0.057 with the
// second lowest, and that of ingest_flood's throughput 0.100 with the
// lowest of 18 and 0.080 with the fifth lowest.
func lowQuartile(reps [][]float64) []float64 {
	k := (len(reps)+3)/4 - 1
	out := make([]float64, len(reps[0]))
	tries := make([]float64, len(reps))
	for i := range out {
		for r, rep := range reps {
			tries[r] = rep[i]
		}
		slices.Sort(tries)
		out[i] = tries[k]
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// untracedRun is the end-to-end run against a child nazard. The
// workload repeats its unit of work on its servers, each freshly started;
// setup_s and server_peak_rss_mb are medians over them.
func untracedRun(name string, o options) (*report, error) {
	world := newWorld()
	var setupS, rss []float64
	var c *child
	e := &env{opt: o, world: world, ops: newOpLog(), scale: float64(o.seconds) / sizedSeconds, reps: workloads[name].servers}
	// retire records the current child's peak RSS and stops it.
	retire := func() error {
		peak, err := e.proc.peakRSSMiB()
		if err != nil {
			return err
		}
		rss = append(rss, peak)
		c.stop()
		if _, err := os.Stat(c.dir); !os.IsNotExist(err) {
			return fmt.Errorf("nazard work dir %s not removed", c.dir)
		}
		c = nil
		return nil
	}
	start := func() error {
		if c != nil {
			if err := retire(); err != nil {
				return err
			}
		}
		ci, d, base, err := startNazard(o, world)
		if err != nil {
			return err
		}
		setupS = append(setupS, d.Seconds())
		c, e.url, e.base, e.proc = ci, ci.url, base, procProbe{pid: ci.cmd.Process.Pid}
		return nil
	}
	defer func() {
		if c != nil {
			c.stop()
		}
	}()
	steal0, total0 := hostCPU()
	if err := start(); err != nil {
		return nil, err
	}
	e.restart = start
	rep, err := workloads[name].run(e)
	if err == nil && o.forceFail {
		err = errors.New("check: failed on request (-force-check-failure)")
	}
	if err != nil {
		if c != nil {
			err = fmt.Errorf("%w (nazard log: %s)", err, c.logTail())
		}
		return nil, err
	}
	if err := retire(); err != nil {
		return nil, err
	}
	if len(setupS) != e.reps {
		return nil, fmt.Errorf("workload ran on %d servers, want %d", len(setupS), e.reps)
	}
	rep.set("setup_s", median(setupS), "s")
	rep.set("server_peak_rss_mb", median(rss), "MiB")
	rep.note("setup_s samples %v; server_peak_rss_mb samples %v", setupS, rss)
	steal1, total1 := hostCPU()
	rep.note("host steal %.1f%% of CPU time during the run", 100*ratio(steal1-steal0, total1-total0))
	for n := range rep.metrics {
		if !isEndToEnd(n) {
			delete(rep.metrics, n)
		}
	}
	return rep, rep.checkFinite()
}

// isEndToEnd reports whether name is one of the end-to-end metrics
// BENCHMARK.json lists.
func isEndToEnd(name string) bool {
	switch name {
	case "setup_s", "ingest_rows_per_s", "latency_p50_ms", "latency_tail_ms", "server_cpu_s", "server_peak_rss_mb":
		return true
	}
	return false
}

// sizedSeconds is the run length the workload size constants are set
// for; --seconds scales them linearly.
const sizedSeconds = 20

// withTimeout is a context for one bounded call.
func withTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}
