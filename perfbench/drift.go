package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"runtime"
	"sort"
	"strings"
	"time"

	"nazar/internal/detect"
	"nazar/internal/device"
	"nazar/internal/driftlog"
	"nazar/internal/httpapi"
	"nazar/internal/imagesim"
	"nazar/internal/nn"
	"nazar/internal/obs"
	"nazar/internal/tensor"
	"nazar/internal/transport"
	"nazar/internal/weather"
)

// drift_fix sizes of one pass: a fleet streams the 112-day calendar (16
// weekly windows) against a freshly started nazard. A run repeats the same
// pass on each of the run's servers; the work does not scale with --seconds.
const (
	// driftDevices is large enough that one device is under the 1%
	// minimum occurrence, as in a real fleet; with 16 devices a single
	// device's false alarms on clear days become diagnosed causes.
	driftDevices    = 128
	driftLocations  = 128
	driftPerDay     = 2
	driftWindowDays = 7
	// driftSampleRate is the share of inferences a device uploads.
	driftSampleRate = 0.5
)

// driftFix is one run's state.
type driftFix struct {
	e        *env
	api      *httpapi.Client
	tc       *transport.Client
	treg     *obs.Registry
	ref      *nn.BNSnapshot
	gen      *weather.Generator
	rng      *rand.Rand
	infers   []float64 // Device.Infer times, µs
	ttf      []float64 // time-to-fix per window of the current pass, ms
	digest   []string  // per-window cause lists of the current pass
	adapted  int       // inferences served by an adapted version
	total    int
	drifted  int
	correct  int // adapted fleet, drifted inputs
	baseOK   int // base model, the same drifted inputs
	causes   int
	pool     float64
	versions []int // versions produced per window of the current pass
	// window holds the attribute values of the open window's reports.
	window [][3]string
}

// runDriftFix streams the weather calendar through a device fleet and
// closes a window every 7th day: flush, analyze the trailing 7 days,
// then every device pulls the new versions as deltas and installs them.
// Every pass repeats the same inputs on a fresh server, so each window's
// time-to-fix is its lowest over the passes (see lowQuartile) and every
// pass must diagnose the same causes.
func runDriftFix(e *env) (*report, error) {
	d := &driftFix{e: e, gen: weather.NewGenerator(e.opt.seed)}
	var cpu, flush float64
	var st transport.Stats
	var ttfs [][]float64 // per pass, per window, ms
	var digest []string
	var acc, baseAcc float64
	for p := 0; p < e.reps; p++ {
		if err := e.fresh(p); err != nil {
			return nil, err
		}
		d.rng = tensor.NewRand(e.opt.seed, 0xF1EE7)
		d.ttf, d.digest, d.versions = nil, nil, nil
		d.total, d.adapted, d.drifted, d.correct, d.baseOK, d.causes = 0, 0, 0, 0, 0, 0
		cpu0 := e.serverCPU()
		ps, err := d.pass()
		if err != nil {
			return nil, err
		}
		cpu += e.serverCPU() - cpu0
		flush += registryValues(d.treg).sum("nazar_transport_flush_seconds_sum")
		st.Acked += ps.Acked
		st.Retries += ps.Retries
		st.SpoolDropped += ps.SpoolDropped
		st.Rejected += ps.Rejected
		passAcc := ratio(float64(d.correct), float64(d.drifted))
		ttfs = append(ttfs, d.ttf)
		if p == 0 {
			digest = d.digest
			acc, baseAcc = passAcc, ratio(float64(d.baseOK), float64(d.drifted))
			continue
		}
		// Correctness: the same inputs give the same causes and accuracy.
		if strings.Join(d.digest, "\n") != strings.Join(digest, "\n") || passAcc != acc {
			return nil, fmt.Errorf("check: pass %d diagnosed %q (accuracy %v), pass 0 %q (accuracy %v)",
				p, d.digest, passAcc, digest, acc)
		}
	}
	// Correctness: adaptation must help on the inputs it was run for.
	if acc <= baseAcc {
		return nil, fmt.Errorf("check: adapted drift accuracy %.4f does not exceed the no-adapt accuracy %.4f", acc, baseAcc)
	}

	rep := newReport(e.ops)
	low := lowQuartile(ttfs)
	rep.set("ingest_rows_per_s", ratio(float64(st.Acked), flush), "rows/s")
	rep.set("latency_p50_ms", median(low), "ms")
	rep.set("latency_tail_ms", quantile(low, gatedTail), "ms")
	rep.set("server_cpu_s", cpu, "s")
	rep.headline = time.Duration(sum(low) * float64(time.Millisecond))
	rep.setLayer("device.adapted_share", ratio(float64(d.adapted), float64(d.total)), "fraction")
	rep.setLayer("registry.pool_versions", d.pool, "count")
	rep.setLayer("transport.retries", float64(st.Retries), "count")
	rep.note("transport.Stats: acked %d, retries %d, spool dropped %d, rejected %d", st.Acked, st.Retries, st.SpoolDropped, st.Rejected)
	rep.setLayer("transport.dropped", float64(st.SpoolDropped+st.Rejected), "count")
	h := sha256.Sum256([]byte(strings.Join(digest, "\n")))
	rep.note("time_to_fix_p50_ms %.6g ms; time_to_fix_p75_ms %.6g ms (n=%d windows, each the lowest of %d passes)",
		median(low), quantile(low, gatedTail), len(low), e.reps)
	rep.note("infer_p50_us %.6g us; infer_p99_us %.6g us (n=%d)", median(d.infers), quantile(d.infers, 0.99), len(d.infers))
	rep.note("drift_accuracy %.6f fraction (n=%d drifted inferences per pass); no-adapt accuracy %.6f", acc, d.drifted, baseAcc)
	rep.note("causes %d over %d windows; causes_digest %x", d.causes, len(low), h[:8])
	var per strings.Builder
	for i, t := range low {
		fmt.Fprintf(&per, " %.0f/%d", t, d.versions[i])
	}
	rep.note("time-to-fix ms / versions per window:%s", per.String())
	return rep, nil
}

// pass streams the 112-day calendar once with a fresh fleet against the
// current server, then checks that every report reached the log.
func (d *driftFix) pass() (transport.Stats, error) {
	e := d.e
	d.api, d.treg = e.api(), obs.NewRegistry()
	ref, err := d.api.RefBN()
	if err := e.ops.record("refbn", err); err != nil {
		return transport.Stats{}, err
	}
	d.ref = ref
	// One transport client carries every report in generation order, so
	// samples and TENT minibatches arrive in the same order every run.
	d.tc = transport.NewClient(e.url, transport.WithConfig(transport.Config{
		Name:          "fleet",
		Registry:      d.treg,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
		HTTPTransport: e.roundTripper(),
		SpoolCapacity: 1 << 16,
	}), transport.WithCodec(httpapi.BinaryCodec{}))
	err = d.stream()
	ctx, cancel := withTimeout(60 * time.Second)
	defer cancel()
	if err == nil {
		err = d.tc.Flush(ctx)
	}
	if cerr := d.tc.Close(ctx); err == nil {
		err = cerr
	}
	st := d.tc.Stats()
	reports := d.total
	e.ops.add("report", int64(reports), int64(st.SpoolDropped+st.Rejected))
	if err != nil {
		return st, err
	}
	status, err := d.api.Status()
	if err := e.ops.record("status", err); err != nil {
		return st, err
	}
	if status.LogRows != reports || int(st.Acked) != reports {
		return st, fmt.Errorf("check: %d reports, %d acked, log_rows %d", reports, st.Acked, status.LogRows)
	}
	return st, nil
}

// stream runs a fleet through the calendar, closing a window every
// driftWindowDays days.
func (d *driftFix) stream() error {
	e := d.e
	days := weather.Days()
	locs := make([]string, driftLocations)
	for l := range locs {
		locs[l] = fmt.Sprintf("city_%03d", l)
	}
	fleet := make([]*device.Device, driftDevices)
	for i := range fleet {
		fleet[i] = device.New(device.Config{
			ID:         fmt.Sprintf("dev_%03d", i),
			Location:   locs[i%driftLocations],
			SampleRate: driftSampleRate,
			Detector:   detect.Threshold{Scorer: detect.MSP{}, T: 0.95},
			Rng:        tensor.NewRand(e.opt.seed+uint64(i), 0xFEE7),
		}, e.base)
	}
	drifts := map[weather.Condition]bool{}
	for di := 0; di < days; di++ {
		day := weather.Start.AddDate(0, 0, di)
		for i, dev := range fleet {
			cond := d.gen.SeriesFor(locs[i%driftLocations])[di]
			corr, drifted := conditionCorruption(cond)
			if drifted {
				drifts[cond] = true
			}
			for k := 0; k < driftPerDay; k++ {
				if err := d.infer(dev, day.Add(time.Duration(k)*time.Hour), cond, corr, drifted); err != nil {
					return err
				}
			}
		}
		if (di+1)%driftWindowDays == 0 {
			if err := d.closeWindow(fleet, day.AddDate(0, 0, 1), drifts); err != nil {
				return err
			}
			drifts = map[weather.Condition]bool{}
		}
	}
	var n int
	for _, dev := range fleet {
		n += dev.Pool.Len()
	}
	d.pool = float64(n) / float64(len(fleet))
	return nil
}

// infer runs one inference and hands its report to the transport. The
// no-adapt baseline runs the base model on the same input, untimed.
func (d *driftFix) infer(dev *device.Device, ts time.Time, cond weather.Condition, corr imagesim.Corruption, drifted bool) error {
	e := d.e
	class := d.rng.IntN(worldClasses)
	x := e.world.Sample(class, d.rng)
	if drifted {
		x = e.world.Corrupt(x, corr, imagesim.DefaultSeverity, d.rng)
	}
	attrs := map[string]string{driftlog.AttrWeather: string(cond)}
	_, end := e.tr.start(context.Background(), "device.infer")
	t := time.Now()
	inf, entry, sample := dev.Infer(ts, x, attrs)
	d.infers = append(d.infers, float64(time.Since(t))/1e3)
	end()
	d.total++
	d.window = append(d.window, [3]string{dev.ID, dev.Location, string(cond)})
	if inf.VersionID != "" {
		d.adapted++
	}
	if drifted {
		d.drifted++
		if inf.Predicted == class {
			d.correct++
		}
		if pred, _ := tensor.ArgMax(e.base.LogitsOne(x)); pred == class {
			d.baseOK++
		}
	}
	return d.tc.Report(entry, sample)
}

// closeWindow is one time-to-fix: from the window's last report handed
// to the transport until every device has installed every version the
// window produced.
func (d *driftFix) closeWindow(fleet []*device.Device, closeDay time.Time, drifts map[weather.Condition]bool) error {
	e := d.e
	// Collect the fleet's garbage before the clock starts, so a GC cycle
	// of the benchmark process itself does not land inside the timing.
	runtime.GC()
	start := time.Now()
	ctx, endFix := e.tr.start(context.Background(), "bench.fix")
	fctx, endFlush := e.tr.start(ctx, "transport.flush")
	err := d.tc.Flush(fctx)
	endFlush()
	if err := e.ops.record("flush", err); err != nil {
		endFix()
		return err
	}
	actx, endAnalyze := e.tr.start(ctx, "httpapi.client_analyze")
	resp, err := d.api.AnalyzeContext(actx, httpapi.AnalyzeRequest{
		From: closeDay.AddDate(0, 0, -driftWindowDays), To: closeDay, Now: closeDay,
	})
	endAnalyze()
	if err := e.ops.record("analyze", err); err != nil {
		endFix()
		return err
	}
	want := append([]string(nil), resp.VersionIDs...)
	sort.Strings(want)
	for _, dev := range fleet {
		dctx, endDeltas := e.tr.start(ctx, "httpapi.client_deltas")
		vs, err := d.api.DeltasContext(dctx, closeDay, d.ref)
		endDeltas()
		if err := e.ops.record("deltas", err); err != nil {
			endFix()
			return err
		}
		got := make([]string, len(vs))
		for i, v := range vs {
			got[i] = v.ID
			_, endInstall := e.tr.start(ctx, "registry.install")
			err := dev.Pool.Install(v, closeDay)
			endInstall()
			if err := e.ops.record("install", err); err != nil {
				endFix()
				return err
			}
		}
		sort.Strings(got)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			endFix()
			return fmt.Errorf("check: device %s pulled versions %v, window produced %v", dev.ID, got, want)
		}
	}
	endFix()
	d.ttf = append(d.ttf, ms(time.Since(start)))
	e.tr.drain()

	// Correctness: every diagnosed cause names a weather condition that
	// drifted in this window, or stands for one: a cause naming only a
	// location or device passes when most reports it matches in the
	// window carried drifted weather (weather is per location and day, so
	// a location that had rain most of the week is confounded with it).
	window := d.window
	d.window = nil
	for _, c := range resp.Causes {
		values := strings.Split(strings.Trim(c, "{}"), ", ")
		ok := false
		for _, v := range values {
			ok = ok || drifts[weather.Condition(v)]
		}
		if !ok {
			matched, drifted := 0, 0
			for _, r := range window {
				if matchesAll(values, r) {
					matched++
					if drifts[weather.Condition(r[2])] {
						drifted++
					}
				}
			}
			ok = 2*drifted > matched
		}
		if !ok {
			return fmt.Errorf("check: window closing %s diagnosed %s, which names no weather condition that drifted in it (%v)",
				closeDay.Format("2006-01-02"), c, drifts)
		}
	}
	d.causes += len(resp.Causes)
	d.versions = append(d.versions, len(resp.VersionIDs))
	d.digest = append(d.digest, closeDay.Format("2006-01-02")+" "+strings.Join(resp.Causes, ";"))
	return nil
}

// matchesAll reports whether every cause value is one of the report's
// attribute values.
func matchesAll(values []string, r [3]string) bool {
	for _, v := range values {
		if v != r[0] && v != r[1] && v != r[2] {
			return false
		}
	}
	return true
}

// conditionCorruption maps a weather condition to its drift operator,
// as cmd/nazar-device does.
func conditionCorruption(c weather.Condition) (imagesim.Corruption, bool) {
	switch c {
	case weather.Rain:
		return imagesim.Rain, true
	case weather.Snow:
		return imagesim.Snow, true
	case weather.Fog:
		return imagesim.Fog, true
	default:
		return "", false
	}
}
