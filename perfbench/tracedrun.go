package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"nazar/internal/cloud"
	"nazar/internal/fim"
	"nazar/internal/httpapi"
	"nazar/internal/imagesim"
	"nazar/internal/nn"
	"nazar/internal/obs"
)

// headlineRoot names each workload's root span: the operation its
// latency metrics time and whose time the layer shares divide.
var headlineRoot = map[string]string{
	"ingest_flood": "bench.ingest_batch",
	"drift_fix":    "bench.fix",
	"rca_highcard": "bench.analyze",
}

func cloneNet(world *imagesim.World, net *nn.Network) *nn.Network {
	out := emptyNet(world)
	if err := nn.CaptureNet(net).ApplyTo(out); err != nil {
		panic(err)
	}
	return out
}

// passInfo is what one in-process pass measured besides its report.
type passInfo struct {
	final        promValues // /metrics at the end of the pass
	gcCPUShare   float64
	allocPerRow  float64
	mineRefusals float64
}

// tracedRun takes the base model from the built nazard, then replays the
// workload twice against an in-process service: untraced, then traced.
// Per-layer numbers come from the traced pass; tracing overhead compares
// the two.
func tracedRun(name string, o options) (*report, error) {
	world := newWorld()
	c, _, base, err := startNazard(o, world)
	if err != nil {
		return nil, err
	}
	c.stop()
	p1, info1, err := inProcessPass(name, o, world, base, nil)
	if err != nil {
		return nil, fmt.Errorf("untraced in-process pass: %w", err)
	}
	tr := newTracer()
	p2, info2, err := inProcessPass(name, o, world, base, tr)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	tracePath := filepath.Join(o.workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, o.seed))
	if err := tr.write(tracePath); err != nil {
		return nil, err
	}
	rep := newReport(p2.ops)
	rep.notes = append(rep.notes, p2.notes...)
	rep.note("spans written to %s (%d spans)", tracePath, len(tr.spans))
	fillPerLayer(rep, name, tr, p1, p2, info1, info2)
	return rep, rep.checkFinite()
}

// inProcessPass serves cloud.NewService through httpapi.NewServer on
// loopback, built as cmd/nazard builds it (observer and WAL on), and runs
// the workload against it.
func inProcessPass(name string, o options, world *imagesim.World, base *nn.Network, tr *tracer) (*report, passInfo, error) {
	var info passInfo
	dir, err := os.MkdirTemp(o.workDir, "inproc-")
	if err != nil {
		return nil, info, err
	}
	defer os.RemoveAll(dir)
	cfg := cloud.DefaultConfig()
	reg := obs.NewRegistry()
	svc := cloud.NewService(cloneNet(world, base), cfg, cloud.WithObserver(reg), cloud.WithWAL(filepath.Join(dir, "wal"), walOptions()))
	if err := svc.WALErr(); err != nil {
		return nil, info, err
	}
	defer svc.Close()
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	var h http.Handler = httpapi.NewServer(svc, httpapi.WithRegistry(reg), httpapi.WithLogger(logger))
	if tr != nil {
		sh, err := newShadowSet(dir, cloneNet(world, base), cfg)
		if err != nil {
			return nil, info, err
		}
		defer sh.close()
		h = &tracedServer{tr: tr, next: h, svc: svc, reg: reg, shadow: sh, stages: registryValues(reg)}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, info, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go hs.Serve(l)
	defer func() {
		ctx, cancel := withTimeout(20 * time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
	}()

	e := &env{
		opt: o, url: "http://" + l.Addr().String(), world: world, ops: newOpLog(), tr: tr,
		proc: procProbe{pid: os.Getpid()}, scale: float64(o.seconds) / sizedSeconds, reps: 1,
	}
	if e.base, err = pullBase(context.Background(), e.api(), world); err != nil {
		return nil, info, err
	}
	refusals0 := fim.MineCacheRefusals()
	rt0 := readRuntime()
	rep, err := workloads[name].run(e)
	if err != nil {
		return nil, info, err
	}
	rt1 := readRuntime()
	tr.drain()
	if info.final, err = scrape(e.url); err != nil {
		return nil, info, err
	}
	used := (rt1[1] - rt1[2]) - (rt0[1] - rt0[2])
	info.gcCPUShare = ratio(rt1[0]-rt0[0], used)
	info.allocPerRow = ratio(rt1[3]-rt0[3], info.final.sum("nazar_driftlog_rows"))
	info.mineRefusals = float64(fim.MineCacheRefusals() - refusals0)
	return rep, info, nil
}

// readRuntime samples GC CPU, total CPU, idle CPU and allocated bytes.
func readRuntime() [4]float64 {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	var out [4]float64
	for i, x := range s {
		switch x.Value.Kind() {
		case metrics.KindFloat64:
			out[i] = x.Value.Float64()
		case metrics.KindUint64:
			out[i] = float64(x.Value.Uint64())
		}
	}
	return out
}

// perLayerMetrics lists every per-layer metric with its unit, in the
// order BENCHMARK.json lists them.
var perLayerMetrics = func() []struct{ name, unit string } {
	out := []struct{ name, unit string }{
		{"device.infer_us", "us"},
		{"device.adapted_share", "fraction"},
		{"registry.install_us", "us"},
		{"registry.pool_versions", "count"},
		{"transport.flush_ms", "ms"},
		{"transport.batch_rows", "rows"},
		{"transport.retries", "count"},
		{"transport.dropped", "count"},
		{"wire.encode_ns_per_row", "ns/row"},
		{"wire.decode_ns_per_row", "ns/row"},
		{"wire.bytes_per_row", "B/row"},
		{"httpapi.ingest_batch_us", "us"},
		{"httpapi.analyze_ms", "ms"},
		{"httpapi.deltas_us", "us"},
		{"httpapi.deltas_bytes", "B"},
		{"cloud.ingest_us_per_row", "us/row"},
		{"cloud.window_ms", "ms"},
		{"cloud.window_rca_ms", "ms"},
		{"cloud.window_adapt_ms", "ms"},
		{"cloud.analysis_cache_reuse_share", "fraction"},
		{"cloud.samples_retained", "count"},
		{"driftlog.wal_append_us", "us"},
		{"driftlog.store_append_ns_per_row", "ns/row"},
		{"driftlog.window_us", "us"},
		{"driftlog.index_words", "count"},
		{"driftlog.sketch_attrs", "count"},
		{"driftlog.sketch_bytes", "B"},
		{"fim.mine_ms", "ms"},
		{"fim.results", "count"},
		{"fim.support_cache_hit_share", "fraction"},
		{"fim.minecache_refusals", "count"},
		{"rca.analyze_ms", "ms"},
		{"rca.counterfactual_ms", "ms"},
		{"rca.cause_kept_share", "fraction"},
		{"adapt.bycause_ms", "ms"},
		{"adapt.clean_ms", "ms"},
		{"adapt.rows", "rows"},
		{"adapt.versions_accepted_share", "fraction"},
		{"runtime.gc_cpu_share", "fraction"},
		{"runtime.alloc_bytes_per_row", "B/row"},
		{"bench.generator_lag_ms", "ms"},
		{"bench.unattributed_share", "fraction"},
		{"bench.trace_overhead", "fraction"},
	}
	for _, l := range layers {
		out = append(out,
			struct{ name, unit string }{l + ".self_ms", "ms"},
			struct{ name, unit string }{l + ".self_share", "fraction"})
	}
	return out
}()

// fillPerLayer computes every per-layer metric of a traced run.
func fillPerLayer(rep *report, name string, tr *tracer, p1, p2 *report, info1, info2 passInfo) {
	st := tr.analyzeSpans(headlineRoot[name])
	fin := info2.final
	us, msec := time.Microsecond, time.Millisecond
	perRow := func(span, rows string) float64 {
		return ratio(float64(st.total(span)), tr.counts[rows])
	}
	windows := tr.counts["windows"]

	rep.set("device.infer_us", st.mean("device.infer", us), "us")
	rep.set("registry.install_us", st.mean("registry.install", us), "us")
	rep.set("transport.flush_ms", st.mean("transport.flush", msec), "ms")
	rep.set("wire.encode_ns_per_row", perRow("wire.encode", "wire.encode_rows"), "ns/row")
	rep.set("wire.decode_ns_per_row", perRow("wire.decode", "wire.decode_rows"), "ns/row")
	rep.set("wire.bytes_per_row", ratio(tr.counts["wire.bytes"], tr.counts["wire.decode_rows"]), "B/row")
	rep.set("httpapi.ingest_batch_us", st.mean("httpapi.ingest_batch", us), "us")
	rep.set("httpapi.analyze_ms", st.mean("httpapi.analyze", msec), "ms")
	rep.set("httpapi.deltas_us", st.mean("httpapi.deltas", us), "us")
	rep.set("httpapi.deltas_bytes", ratio(tr.counts["httpapi.deltas_bytes"], tr.counts["httpapi.deltas_calls"]), "B")
	rep.set("cloud.ingest_us_per_row", perRow("cloud.ingest", "cloud.ingest_rows")/1e3, "us/row")
	rep.set("cloud.window_ms", st.mean("cloud.window", msec), "ms")
	rep.set("cloud.window_rca_ms", st.mean("rca.analyze", msec), "ms")
	rep.set("cloud.window_adapt_ms", st.mean("adapt.window", msec), "ms")
	hit, delta := fin[`nazar_analysis_cache_total{result="hit"}`], fin[`nazar_analysis_cache_total{result="delta"}`]
	rep.set("cloud.analysis_cache_reuse_share", ratio(hit+delta, fin.sum("nazar_analysis_cache_total")), "fraction")
	rep.set("cloud.samples_retained", fin.sum("nazar_samples_retained"), "count")
	rep.set("driftlog.wal_append_us", st.mean("driftlog.wal_append", us), "us")
	rep.set("driftlog.store_append_ns_per_row", perRow("driftlog.store_append", "cloud.ingest_rows"), "ns/row")
	rep.set("driftlog.window_us", st.mean("driftlog.window", us), "us")
	rep.set("driftlog.index_words", fin.sum("nazar_driftlog_index_words"), "count")
	rep.set("driftlog.sketch_attrs", fin.sum("nazar_sketch_attrs"), "count")
	rep.set("driftlog.sketch_bytes", fin.sum("nazar_sketch_bytes"), "B")
	rep.set("fim.mine_ms", st.mean("fim.mine", msec), "ms")
	rep.set("fim.results", ratio(tr.counts["fim.results"], windows), "count")
	hits, misses := fin.sum("nazar_fim_cache_hits"), fin.sum("nazar_fim_cache_misses")
	rep.set("fim.support_cache_hit_share", ratio(hits, hits+misses), "fraction")
	rep.set("fim.minecache_refusals", info2.mineRefusals, "count")
	rep.set("rca.analyze_ms", st.mean("rca.analyze", msec), "ms")
	rep.set("rca.counterfactual_ms", st.mean("rca.counterfactual", msec), "ms")
	rep.set("rca.cause_kept_share", ratio(tr.counts["rca.causes"], tr.counts["rca.associations"]), "fraction")
	rep.set("adapt.bycause_ms", st.mean("adapt.bycause", msec), "ms")
	rep.set("adapt.clean_ms", st.mean("adapt.clean", msec), "ms")
	rep.set("adapt.rows", ratio(tr.counts["adapt.rows"], windows), "rows")
	acc := fin[`nazar_window_versions_total{verdict="accepted"}`]
	rep.set("adapt.versions_accepted_share", ratio(acc, fin.sum("nazar_window_versions_total")), "fraction")
	rep.set("runtime.gc_cpu_share", info1.gcCPUShare, "fraction")
	rep.set("runtime.alloc_bytes_per_row", info1.allocPerRow, "B/row")
	// Counts the workload observed itself; a workload that does not
	// exercise a layer reports 0.
	for _, m := range perLayerMetrics {
		if v, ok := p2.layer[m.name]; ok {
			rep.metrics[m.name] = v
		} else if _, ok := rep.metrics[m.name]; !ok {
			rep.set(m.name, 0, m.unit)
		}
	}

	total := float64(st.rootTotal)
	rep.set("bench.unattributed_share", ratio(float64(st.selfByLayer["bench"]), total), "fraction")
	rep.set("bench.trace_overhead", ratio(p2.headline.Seconds()-p1.headline.Seconds(), p1.headline.Seconds()), "fraction")
	for _, l := range layers {
		self := st.selfByLayer[l]
		rep.set(l+".self_ms", ratio(float64(self)/float64(msec), float64(st.roots)), "ms")
		rep.set(l+".self_share", ratio(float64(self), total), "fraction")
	}
	rep.note("headline %s: %d root spans, %.1f ms total; untraced %.1f ms, traced %.1f ms",
		headlineRoot[name], st.roots, total/1e6, ms(p1.headline), ms(p2.headline))
	for _, l := range append([]string{"bench"}, layers...) {
		if d := st.selfByLayer[l]; d > 0 {
			rep.note("self %-10s %10.2f ms  %6.1f%%", l, float64(d)/1e6, 100*ratio(float64(d), total))
		}
	}
}
