package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nazar/internal/adapt"
	"nazar/internal/cloud"
	"nazar/internal/driftlog"
	"nazar/internal/fim"
	"nazar/internal/httpapi"
	"nazar/internal/nn"
	"nazar/internal/obs"
	"nazar/internal/rca"
	"nazar/internal/tensor"
	"nazar/internal/wire"
)

// Span kinds. A real span times a call as it happens. A program span
// carries a duration the program measured itself (the window stage
// histograms on /metrics). A shadow span times a layer's public function
// called again on the same input, for layers reachable only inside
// another layer's call; it is nested under the caller's span as the
// program nests the call. A derived span is a program span minus its
// shadow siblings.
const (
	kindReal    = ""
	kindProgram = "program"
	kindShadow  = "shadow"
	kindDerived = "derived"
)

// spanRec is one recorded span. Times are nanoseconds since the run
// started; trace groups the spans of one batch or window.
type spanRec struct {
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Kind   string `json:"kind,omitempty"`
}

func (s spanRec) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanRef identifies a span as a parent.
type spanRef struct{ trace, id int64 }

type spanKey struct{}

// tracer keeps spans and counts in memory. Every method is a no-op on a
// nil tracer, so workload code calls it unconditionally.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64

	mu     sync.Mutex
	spans  []spanRec
	counts map[string]float64

	pendMu  sync.Mutex
	pending []func()

	ingestN atomic.Int64
}

// ingestTraceEvery: the traced run traces one in this many of the ingest
// batches the benchmark posts itself. Shadowing every batch tripled the
// traced process's allocations, and the extra GC work slowed the real
// calls the spans time (ingest_flood ran 2.25x slower traced).
const ingestTraceEvery = 8

// sampleIngest returns t for the ingest batches the traced run traces and
// nil for the others, which then run untraced.
func (t *tracer) sampleIngest() *tracer {
	if t == nil || (t.ingestN.Add(1)-1)%ingestTraceEvery != 0 {
		return nil
	}
	return t
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]float64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// start opens a real span as a child of the span in ctx (or as the root
// of a new trace) and returns the context carrying it and its end func.
func (t *tracer) start(ctx context.Context, name string) (context.Context, func()) {
	if t == nil {
		return ctx, func() {}
	}
	parent, _ := ctx.Value(spanKey{}).(spanRef)
	id := t.nextID.Add(1)
	ref := spanRef{trace: parent.trace, id: id}
	if ref.trace == 0 {
		ref.trace = id
	}
	start := t.now()
	return context.WithValue(ctx, spanKey{}, ref), func() {
		t.add(spanRec{Trace: ref.trace, ID: id, Parent: parent.id, Name: name, Start: start, End: t.now()})
	}
}

// record adds a finished span under parent and returns its reference.
func (t *tracer) record(parent spanRef, name, kind string, start, end int64) spanRef {
	id := t.nextID.Add(1)
	trace := parent.trace
	if trace == 0 {
		trace = id
	}
	t.add(spanRec{Trace: trace, ID: id, Parent: parent.id, Name: name, Start: start, End: end, Kind: kind})
	return spanRef{trace: trace, id: id}
}

// shadow times fn as a shadow span under parent.
func (t *tracer) shadow(parent spanRef, name string, fn func()) (spanRef, time.Duration) {
	start := t.now()
	fn()
	end := t.now()
	return t.record(parent, name, kindShadow, start, end), time.Duration(end - start)
}

// timed records a span of the given duration ending now.
func (t *tracer) timed(parent spanRef, name, kind string, d time.Duration) spanRef {
	if d < 0 {
		d = 0
	}
	end := t.now()
	return t.record(parent, name, kind, end-int64(d), end)
}

func (t *tracer) add(s spanRec) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// count adds v to a named counter kept beside the spans.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// later queues shadow work; drain runs it outside the timed region.
func (t *tracer) later(fn func()) {
	t.pendMu.Lock()
	t.pending = append(t.pending, fn)
	t.pendMu.Unlock()
}

func (t *tracer) drain() {
	if t == nil {
		return
	}
	for {
		t.pendMu.Lock()
		p := t.pending
		t.pending = nil
		t.pendMu.Unlock()
		if len(p) == 0 {
			return
		}
		for _, fn := range p {
			fn()
		}
	}
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := json.NewEncoder(f)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := w.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	return f.Close()
}

// spanHeader carries the client's span to the server.
const spanHeader = "X-Perfbench-Span"

// traceRoundTripper puts the span in the request context on the wire.
type traceRoundTripper struct{ next http.RoundTripper }

func (rt *traceRoundTripper) RoundTrip(r *http.Request) (*http.Response, error) {
	if ref, ok := r.Context().Value(spanKey{}).(spanRef); ok {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, fmt.Sprintf("%d/%d", ref.trace, ref.id))
	}
	return rt.next.RoundTrip(r)
}

func parseSpanHeader(v string) spanRef {
	a, b, ok := strings.Cut(v, "/")
	if !ok {
		return spanRef{}
	}
	t, err1 := strconv.ParseInt(a, 10, 64)
	i, err2 := strconv.ParseInt(b, 10, 64)
	if err1 != nil || err2 != nil {
		return spanRef{}
	}
	return spanRef{trace: t, id: i}
}

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += n
	return n, err
}

// shadowSet holds the second copies of stateful layers that shadow calls
// run against, so the served service's state is never touched twice.
type shadowSet struct {
	svc   *cloud.Service // cloud.IngestColumnsContext
	wal   *driftlog.WAL  // driftlog WAL.AppendColumns
	store *driftlog.Store
	cfg   cloud.Config
}

func newShadowSet(dir string, base *nn.Network, cfg cloud.Config) (*shadowSet, error) {
	svc := cloud.NewService(base, cfg, cloud.WithWAL(filepath.Join(dir, "shadow-svc"), walOptions()))
	if err := svc.WALErr(); err != nil {
		return nil, err
	}
	wal, err := driftlog.OpenWAL(filepath.Join(dir, "shadow-wal"), driftlog.NewStoreWithSketch(cfg.Sketch), walOptions())
	if err != nil {
		svc.Close()
		return nil, err
	}
	return &shadowSet{svc: svc, wal: wal, store: driftlog.NewStoreWithSketch(cfg.Sketch), cfg: cfg}, nil
}

func (s *shadowSet) close() {
	s.svc.Close()
	s.wal.Close()
}

// walOptions are nazard's WAL flag defaults.
func walOptions() driftlog.WALOptions {
	return driftlog.WALOptions{SegmentBytes: 4 << 20, CompactSegments: 4}
}

// tracedServer wraps httpapi.Server.ServeHTTP with a real span per
// traced request (one carrying a span) and queues the shadow calls for
// the layers inside it. Untraced requests pass straight through.
type tracedServer struct {
	tr     *tracer
	next   http.Handler
	svc    *cloud.Service
	reg    *obs.Registry
	shadow *shadowSet
	// stages is the registry as it stood after the last analysis. Only
	// analyses move the window stage histograms, and the workloads drain
	// the queued shadow work after each analysis, so it is also the state
	// before the next one. Rendering the registry inside the request cost
	// the client about 7 ms per analysis.
	stages promValues
}

func (s *tracedServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h := r.Header.Get(spanHeader)
	if h == "" {
		s.next.ServeHTTP(w, r)
		return
	}
	parent := parseSpanHeader(h)
	name := "httpapi." + strings.Trim(strings.ReplaceAll(strings.TrimPrefix(r.URL.Path, "/v1/"), "/", "_"), "_")
	var body []byte
	var baseBefore *nn.Network
	var areq httpapi.AnalyzeRequest
	switch r.URL.Path {
	case "/v1/ingest/batch", "/v1/analyze":
		body, _ = io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	if r.URL.Path == "/v1/analyze" {
		_ = json.Unmarshal(body, &areq)
		baseBefore = s.svc.Base()
	}
	cw := &countingWriter{ResponseWriter: w}
	start := s.tr.now()
	s.next.ServeHTTP(cw, r)
	ref := s.tr.record(parent, name, kindReal, start, s.tr.now())
	switch r.URL.Path {
	case "/v1/ingest/batch":
		s.tr.count("wire.bytes", float64(len(body)))
		s.tr.later(func() { s.shadowIngest(ref, body) })
	case "/v1/analyze":
		s.tr.later(func() {
			before, after := s.stages, registryValues(s.reg)
			s.stages = after
			s.shadowWindow(ref, before, after, baseBefore, areq)
		})
	case "/v1/deltas":
		s.tr.count("httpapi.deltas_bytes", float64(cw.n))
		s.tr.count("httpapi.deltas_calls", 1)
	}
}

// registryValues renders the in-process registry as /metrics would.
func registryValues(reg *obs.Registry) promValues {
	var b bytes.Buffer
	_ = reg.WritePrometheus(&b)
	v, _ := parseProm(&b)
	return v
}

// shadowIngest times the layers inside POST /v1/ingest/batch: the
// frame decode, the cloud ingest (on the shadow service, WAL on), and
// under it the WAL append and the store append.
func (s *tracedServer) shadowIngest(parent spanRef, body []byte) {
	decode := func() *wire.Batch {
		b, err := wire.DecodeBatch(body, 1<<20)
		if err != nil {
			panic(fmt.Sprintf("shadow decode: %v", err))
		}
		return b
	}
	var b *wire.Batch
	s.tr.shadow(parent, "wire.decode", func() { b = decode() })
	rows := b.Rows()
	s.tr.count("wire.decode_rows", float64(rows))
	forWAL, forStore := decode(), decode()
	ref, _ := s.tr.shadow(parent, "cloud.ingest", func() {
		if err := s.shadow.svc.IngestColumnsContext(context.Background(), &b.Columns, b.Samples); err != nil {
			panic(fmt.Sprintf("shadow ingest: %v", err))
		}
	})
	s.tr.count("cloud.ingest_rows", float64(rows))
	s.tr.shadow(ref, "driftlog.wal_append", func() {
		if err := s.shadow.wal.AppendColumns(&forWAL.Columns); err != nil {
			panic(fmt.Sprintf("shadow wal append: %v", err))
		}
	})
	s.tr.shadow(ref, "driftlog.store_append", func() {
		if err := s.shadow.store.AppendColumns(&forStore.Columns); err != nil {
			panic(fmt.Sprintf("shadow store append: %v", err))
		}
	})
}

// shadowWindow lays the window's stage durations, as the service
// measured them, under the POST /v1/analyze span, and times the layers
// inside each stage by calling them again on the served store's view.
func (s *tracedServer) shadowWindow(parent spanRef, before, after promValues, baseBefore *nn.Network, req httpapi.AnalyzeRequest) {
	stage := func(name string) time.Duration {
		k := `nazar_window_stage_seconds_sum{stage="` + name + `"}`
		return time.Duration((after[k] - before[k]) * float64(time.Second))
	}
	total, rcaD, adaptD := stage("total"), stage("rca"), stage("adapt")
	cfg := s.shadow.cfg
	ctx := context.Background()
	win := s.tr.timed(parent, "cloud.window", kindProgram, total)
	var view *driftlog.View
	s.tr.shadow(win, "driftlog.window", func() { view = s.svc.Log().Window(req.From, req.To) })

	rcaRef := s.tr.timed(win, "rca.analyze", kindProgram, rcaD)
	var results []fim.Result
	s.tr.shadow(rcaRef, "fim.mine", func() {
		var err error
		if results, err = fim.MineContext(ctx, view, nil, cfg.Thresholds); err != nil {
			panic(fmt.Sprintf("shadow mine: %v", err))
		}
	})
	assocs := rca.SetReduction(results)
	var causes []rca.Cause
	s.tr.shadow(rcaRef, "rca.counterfactual", func() {
		var err error
		if causes, err = rca.CounterfactualContext(ctx, view, assocs, cfg.Thresholds); err != nil {
			panic(fmt.Sprintf("shadow counterfactual: %v", err))
		}
	})
	s.tr.count("fim.results", float64(len(results)))
	s.tr.count("rca.associations", float64(len(assocs)))
	s.tr.count("rca.causes", float64(len(causes)))
	s.tr.count("windows", 1)

	adaptRef := s.tr.timed(win, "adapt.window", kindProgram, adaptD)
	var gathered int
	source := func(c rca.Cause) *tensor.Matrix {
		ids, err := view.SampleIDs(c.Items)
		if err != nil {
			return nil
		}
		m := s.svc.Samples().Gather(ids)
		if m != nil {
			gathered += m.Rows
		}
		return m
	}
	acfg := cfg.AdaptCfg
	acfg.Rng = tensor.NewRand(0xADA, 1)
	_, bc := s.tr.shadow(adaptRef, "adapt.bycause", func() {
		if _, err := adapt.ByCauseContext(ctx, baseBefore, causes, source, cfg.MinSamplesPerCause, acfg, req.Now); err != nil {
			panic(fmt.Sprintf("shadow by-cause adaptation: %v", err))
		}
	})
	s.tr.count("adapt.rows", float64(gathered))
	s.tr.timed(adaptRef, "adapt.clean", kindDerived, adaptD-bc)
}

// layerStats summarizes a traced pass: self time per layer over the
// workload's headline operations, and per-name durations.
type layerStats struct {
	selfByLayer map[string]time.Duration
	rootTotal   time.Duration
	roots       int
	byName      map[string][]time.Duration
}

// layerOf maps a span name to its layer: the text before the first dot.
func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// analyzeSpans computes each layer's self time over the trees under root
// spans named rootName: the summed durations of the layer's spans minus
// the summed durations of their children, never below zero. Summing
// before subtracting lets a shadow's run-to-run noise (a WAL fsync timed
// once in the program and once in its shadow) cancel instead of being
// clamped per span, so the layers' self times add up to the roots' time.
func (t *tracer) analyzeSpans(rootName string) layerStats {
	t.mu.Lock()
	spans := append([]spanRec(nil), t.spans...)
	t.mu.Unlock()
	children := map[int64][]int{}
	st := layerStats{selfByLayer: map[string]time.Duration{}, byName: map[string][]time.Duration{}}
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
		st.byName[s.Name] = append(st.byName[s.Name], s.dur())
	}
	var walk func(i int)
	walk = func(i int) {
		s := spans[i]
		self := s.dur()
		for _, c := range children[s.ID] {
			self -= spans[c].dur()
			walk(c)
		}
		st.selfByLayer[layerOf(s.Name)] += self
	}
	for i, s := range spans {
		if s.Parent == 0 && s.Name == rootName {
			st.roots++
			st.rootTotal += s.dur()
			walk(i)
		}
	}
	for l, d := range st.selfByLayer {
		st.selfByLayer[l] = max(d, 0)
	}
	return st
}

// mean returns the mean duration of spans named name, in unit.
func (st layerStats) mean(name string, unit time.Duration) float64 {
	ds := st.byName[name]
	if len(ds) == 0 {
		return 0
	}
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return float64(s) / float64(len(ds)) / float64(unit)
}

// total returns the summed duration of spans named name.
func (st layerStats) total(name string) time.Duration {
	var s time.Duration
	for _, d := range st.byName[name] {
		s += d
	}
	return s
}

// layers are the repo's internal modules on the benchmarked path.
var layers = []string{"device", "registry", "transport", "wire", "httpapi", "cloud", "driftlog", "fim", "rca", "adapt"}
