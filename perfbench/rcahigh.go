package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"nazar/internal/driftlog"
	"nazar/internal/fim"
	"nazar/internal/httpapi"
	"nazar/internal/tensor"
)

// rca_highcard sizes, for sizedSeconds of measurement on a 2-vCPU host.
const (
	// hcWindows analyses per server; the 300 of a run give the pooled
	// p90 ten samples beyond it. It does not scale with --seconds.
	hcWindows = 50
	// hcBatches is the 256-row batches ingested before each analysis.
	hcBatches   = 4
	hcBatchRows = 256
	hcDevices   = 20000
	// hcVersions app_version values, hcHot of them carrying hcHotShare
	// of the rows (weighted 1, 1/2, ..., 1/hcHot).
	hcVersions  = 16000
	hcHot       = 12
	hcHotShare  = 0.6
	hcLocations = 8
	// hcWindowSpan is the simulated time between analyses.
	hcWindowSpan = 10 * time.Minute
	// Drift probabilities: rows matching the planted cause
	// app_version=<hottest> ∧ weather=snow, and every other row.
	hcPlantedDrift = 0.85
	hcOtherDrift   = 0.04
)

var hcWeather = []struct {
	name  string
	share float64
}{{"clear-day", 0.5}, {"rain", 0.2}, {"snow", 0.2}, {"fog", 0.1}}

// hcGen draws rows for rca_highcard from the seed.
type hcGen struct {
	rng    *rand.Rand
	hotCum []float64 // cumulative hot-value weights, normalized to 1
	t0     time.Time
	// Ground truth over everything generated so far.
	rows, drift, planted, plantedDrift int
}

func newHCGen(seed uint64) *hcGen {
	g := &hcGen{rng: tensor.NewRand(seed, 0x41C4), t0: time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)}
	var sum float64
	for h := 0; h < hcHot; h++ {
		sum += 1 / float64(h+1)
		g.hotCum = append(g.hotCum, sum)
	}
	for h := range g.hotCum {
		g.hotCum[h] /= sum
	}
	return g
}

func hotVersion(h int) string { return fmt.Sprintf("v2.%d", h) }

// plantedKey is the planted cause as the analysis renders it.
var plantedKey = "{" + hotVersion(0) + ", snow}"

// batch draws the rows of batch j of window w's batches (metadata
// only), spread evenly over the window's simulated span.
func (g *hcGen) batch(w, j, batches int) []driftlog.Entry {
	out := make([]driftlog.Entry, hcBatchRows)
	perWindow := batches * hcBatchRows
	for r := range out {
		dev := g.rng.IntN(hcDevices)
		var version string
		hot := -1
		if g.rng.Float64() < hcHotShare {
			u := g.rng.Float64()
			for hot = 0; hot < hcHot-1 && u > g.hotCum[hot]; hot++ {
			}
			version = hotVersion(hot)
		} else {
			version = fmt.Sprintf("v1.%05d", g.rng.IntN(hcVersions-hcHot))
		}
		u := g.rng.Float64()
		wi := 0
		for ; wi < len(hcWeather)-1 && u > hcWeather[wi].share; wi++ {
			u -= hcWeather[wi].share
		}
		weatherName := hcWeather[wi].name
		planted := hot == 0 && weatherName == "snow"
		p := hcOtherDrift
		if planted {
			p = hcPlantedDrift
		}
		drift := g.rng.Float64() < p
		g.rows++
		if drift {
			g.drift++
		}
		if planted {
			g.planted++
			if drift {
				g.plantedDrift++
			}
		}
		out[r] = driftlog.Entry{
			Time: g.t0.Add(time.Duration(w)*hcWindowSpan +
				time.Duration(j*hcBatchRows+r)*hcWindowSpan/time.Duration(perWindow)),
			Attrs: map[string]string{
				driftlog.AttrDevice:   fmt.Sprintf("hc_%05d", dev),
				driftlog.AttrLocation: fmt.Sprintf("site_%d", dev%hcLocations),
				driftlog.AttrWeather:  weatherName,
				"app_version":         version,
			},
			Drift:    drift,
			SampleID: -1,
		}
	}
	return out
}

// plantedPasses reports whether the planted cause clears every FIM
// threshold by a 25% margin on the exact counts, so the sketch tier's
// bounded overestimates cannot move it across a threshold.
func (g *hcGen) plantedPasses(th fim.Thresholds) bool {
	m := fim.ComputeMetrics(driftlog.CountResult{Total: g.planted, Drift: g.plantedDrift}, g.rows, g.drift)
	const margin = 1.25
	return m.Occurrence >= margin*th.MinOccurrence && m.Support >= margin*th.MinSupport &&
		m.Confidence >= margin*th.MinConfidence && m.RiskRatio >= margin*th.MinRiskRatio
}

// runRCAHighCard alternates a fixed number of 256-row batches with an
// analysis over the cumulative window, on a log whose device and
// app_version attributes cross the sketch tier's threshold.
func runRCAHighCard(e *env) (*report, error) {
	batches := e.scaled(hcBatches, 1)
	windows := hcWindows
	rep := newReport(e.ops)
	var ingests, analyses [][]float64 // per server, per batch or window, ms
	var analyze []float64
	var cpu float64
	rows, checked := 0, 0
	for r := 0; r < e.reps; r++ {
		if err := e.fresh(r); err != nil {
			return nil, err
		}
		cpu0 := e.serverCPU()
		// Every server gets the same rows, so window w is the same work
		// on each.
		res, err := hcRep(e, windows, batches)
		if err != nil {
			return nil, err
		}
		cpu += e.serverCPU() - cpu0
		ingests, analyses = append(ingests, res.ingest), append(analyses, res.analyze)
		analyze = append(analyze, res.analyze...)
		rows, checked = res.rows, res.checked
		rep.note("rep %d: ingest %.0f rows/s, analyze p50 %.3f ms, p75 %.3f ms",
			r, float64(res.rows)/(sum(res.ingest)/1e3), median(res.analyze), quantile(res.analyze, gatedTail))
	}

	// Each batch and each analysis at its lower quartile over the servers
	// (see lowQuartile). A batch (about 4 ms) is the unit of ingest, not a
	// window's four: under 6–12% steal a window's summed batches were hit
	// on most servers and the throughput read 20% low.
	low, lowIngest := lowQuartile(analyses), lowQuartile(ingests)
	q := tailQuantile(len(analyze))
	rep.set("ingest_rows_per_s", float64(rows)/(sum(lowIngest)/1e3), "rows/s")
	rep.set("latency_p50_ms", median(low), "ms")
	rep.set("latency_tail_ms", quantile(low, gatedTail), "ms")
	rep.set("server_cpu_s", cpu, "s")
	rep.headline = time.Duration(sum(analyze) * float64(time.Millisecond))
	rep.note("analyze round trip p50 %.6g ms, p75 %.6g ms (%d windows, up to %d rows, each the lower quartile of %d servers); ingest %.6g rows/s (%d rows, each batch at its lower quartile)",
		median(low), quantile(low, gatedTail), windows, windows*batches*hcBatchRows, e.reps, rep.metrics["ingest_rows_per_s"].Value, rows)
	rep.note("pooled over %d servers: analyze_p50_ms %.6g ms; analyze_p%.0f_ms %.6g ms (n=%d)",
		e.reps, median(analyze), 100*q, quantile(analyze, q), len(analyze))
	rep.note("planted cause %s diagnosed in all %d windows where it clears the thresholds", plantedKey, checked)
	return rep, nil
}

// hcResult is one repetition of rca_highcard.
type hcResult struct {
	ingest        []float64 // per batch, ms inside its IngestBatch call
	analyze       []float64 // per window, ms
	rows, checked int
}

// hcRep runs windows analyses against the current server.
func hcRep(e *env, windows, batches int) (hcResult, error) {
	var res hcResult
	g := newHCGen(e.opt.seed)
	api := e.api()
	api.Codec = httpapi.BinaryCodec{}
	th := fim.DefaultThresholds()
	for w := 0; w < windows; w++ {
		for j := 0; j < batches; j++ {
			entries := g.batch(w, j, batches)
			n, d, err := ingestBatch(e, api, entries, nil)
			res.ingest = append(res.ingest, ms(d))
			if err != nil {
				return res, err
			}
			res.rows += n
		}
		end := g.t0.Add(time.Duration(w+1) * hcWindowSpan)
		ctx, endRoot := e.tr.start(context.Background(), "bench.analyze")
		cctx, endCall := e.tr.start(ctx, "httpapi.client_analyze")
		t := time.Now()
		resp, err := api.AnalyzeContext(cctx, httpapi.AnalyzeRequest{From: g.t0, To: end, Now: end})
		d := time.Since(t)
		endCall()
		endRoot()
		if err := e.ops.record("analyze", err); err != nil {
			return res, err
		}
		res.analyze = append(res.analyze, ms(d))
		e.tr.drain()
		if resp.LogRows != res.rows {
			return res, fmt.Errorf("check: window %d analysed %d rows, %d ingested", w, resp.LogRows, res.rows)
		}
		// Correctness: once the planted cause clears the thresholds it
		// is diagnosed in every window.
		if g.plantedPasses(th) {
			res.checked++
			found := false
			for _, c := range resp.Causes {
				found = found || c == plantedKey
			}
			if !found {
				return res, fmt.Errorf("check: window %d (%d rows) missed the planted cause %s; diagnosed %v",
					w, res.rows, plantedKey, resp.Causes)
			}
		}
	}
	if res.checked < windows/2 {
		return res, fmt.Errorf("check: the planted cause cleared the thresholds in only %d of %d windows", res.checked, windows)
	}
	vals, err := scrape(e.url)
	if err := e.ops.record("metrics", err); err != nil {
		return res, err
	}
	// The sketch tier must actually have answered queries.
	if n := vals.sum("nazar_sketch_attrs"); n < 1 {
		return res, fmt.Errorf("check: nazar_sketch_attrs = %v, the sketch tier was not exercised", n)
	}
	return res, nil
}
