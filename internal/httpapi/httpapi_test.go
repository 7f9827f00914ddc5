package httpapi

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"nazar/internal/adapt"
	"nazar/internal/cloud"
	"nazar/internal/driftlog"
	"nazar/internal/imagesim"
	"nazar/internal/nn"
	"nazar/internal/rca"
	"nazar/internal/tensor"
	"nazar/internal/weather"
)

// newEnv starts an httptest server around a service with a small trained
// model, returning the client and the world.
func newEnv(t *testing.T) (*Client, *imagesim.World, *nn.Network) {
	t.Helper()
	c, _, world, base := newEnvServer(t)
	return c, world, base
}

// newEnvServer is newEnv that also returns the server under test.
func newEnvServer(t *testing.T) (*Client, *Server, *imagesim.World, *nn.Network) {
	t.Helper()
	world := imagesim.NewWorld(imagesim.DefaultConfig(8, 1010))
	rng := tensor.NewRand(1010, 1)
	base := nn.NewClassifier(nn.ArchResNet18, world.Dim(), 8, rng)
	n := 320
	x := tensor.New(n, world.Dim())
	y := make([]int, n)
	for i := 0; i < n; i++ {
		y[i] = i % 8
		copy(x.Row(i), world.Sample(y[i], rng))
	}
	nn.Fit(base, x, y, nn.TrainConfig{Epochs: 12, BatchSize: 32, Rng: rng})
	cfg := cloud.DefaultConfig()
	cfg.MinSamplesPerCause = 8
	cfg.AdaptCfg.Epochs = 1
	cfg.AdaptCfg.MinSteps = 5
	svc := cloud.NewService(base, cfg)
	server := NewServer(svc)
	srv := httptest.NewServer(server)
	t.Cleanup(srv.Close)
	return NewClient(srv.URL), server, world, base
}

func TestStatusEmpty(t *testing.T) {
	c, _, _ := newEnv(t)
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.LogRows != 0 || st.Samples != 0 || st.Versions != 0 {
		t.Fatalf("status %+v", st)
	}
}

func TestIngestAnalyzePullRoundTrip(t *testing.T) {
	c, world, base := newEnv(t)
	rng := tensor.NewRand(2020, 1)
	day := weather.Day(5)
	// Report fog-drifted and clean inferences.
	for i := 0; i < 200; i++ {
		class := i % 8
		x := world.Sample(class, rng)
		cond := "clear-day"
		if i%2 == 0 {
			x = world.Corrupt(x, imagesim.Fog, imagesim.DefaultSeverity, rng)
			cond = "fog"
		}
		msp := tensor.Max(tensor.Softmax(base.LogitsOne(x)))
		entry := driftlog.Entry{
			Time:  day.Add(time.Duration(i) * time.Minute),
			Drift: msp < 0.95,
			Attrs: map[string]string{
				driftlog.AttrWeather:  cond,
				driftlog.AttrLocation: []string{"A", "B", "C"}[i%3],
				driftlog.AttrDevice:   "dev0",
			},
		}
		if err := c.Ingest(entry, x); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.LogRows != 200 || st.Samples != 200 {
		t.Fatalf("status after ingest %+v", st)
	}

	resp, err := c.Analyze(AnalyzeRequest{Now: day.AddDate(0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.LogRows != 200 {
		t.Fatalf("analyze scanned %d rows", resp.LogRows)
	}
	foundFog := false
	for _, cause := range resp.Causes {
		if strings.Contains(cause, "fog") {
			foundFog = true
		}
	}
	if !foundFog {
		t.Fatalf("fog not found in %v", resp.Causes)
	}
	if len(resp.VersionIDs) == 0 {
		t.Fatal("no versions produced")
	}

	// Pull versions and install on a fresh device pool.
	versions, err := c.Versions(time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != len(resp.VersionIDs) {
		t.Fatalf("pulled %d versions, expected %d", len(versions), len(resp.VersionIDs))
	}
	var fogV *adapt.BNVersion
	for i := range versions {
		if !versions[i].IsClean() {
			fogV = &versions[i]
		}
	}
	if fogV == nil {
		t.Fatal("no adapted version pulled")
	}
	net, err := adapt.Materialize(base, *fogV)
	if err != nil {
		t.Fatal(err)
	}
	// The wire round-trip must preserve adaptation quality.
	testN := 120
	fx := tensor.New(testN, world.Dim())
	labels := make([]int, testN)
	for i := 0; i < testN; i++ {
		labels[i] = i % 8
		copy(fx.Row(i), world.Corrupt(world.Sample(labels[i], rng), imagesim.Fog, imagesim.DefaultSeverity, rng))
	}
	if before, after := base.Accuracy(fx, labels), net.Accuracy(fx, labels); after <= before-0.02 {
		t.Fatalf("pulled version regressed: %v -> %v", before, after)
	}

	// Versions filtered by since: everything is newer than a past time,
	// nothing newer than a future one.
	future, err := c.Versions(day.AddDate(1, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(future) != 0 {
		t.Fatalf("future filter returned %d versions", len(future))
	}
}

func TestBaseDownload(t *testing.T) {
	c, world, base := newEnv(t)
	snap, err := c.Base()
	if err != nil {
		t.Fatal(err)
	}
	fresh := nn.NewClassifier(nn.ArchResNet18, world.Dim(), 8, tensor.NewRand(9, 9))
	if err := snap.ApplyTo(fresh); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(4, world.Dim())
	x.RandNormal(tensor.NewRand(3, 3), 0, 1)
	a, b := base.Logits(x), fresh.Logits(x)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("downloaded base diverges")
		}
	}
}

func TestIngestValidation(t *testing.T) {
	c, _, _ := newEnv(t)
	err := c.Ingest(driftlog.Entry{Time: time.Now()}, nil)
	if err == nil {
		t.Fatal("entry without attrs must be rejected")
	}
	if !strings.Contains(err.Error(), "400") {
		t.Fatalf("expected HTTP 400, got %v", err)
	}
}

func TestBadSinceParam(t *testing.T) {
	c, _, _ := newEnv(t)
	resp, err := c.HTTP.Get(c.BaseURL + "/v1/versions?since=bogus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	c, _, _ := newEnv(t)
	resp, err := c.HTTP.Get(c.BaseURL + "/v1/ingest")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestManualModeOverHTTP(t *testing.T) {
	c, world, base := newEnv(t)
	rng := tensor.NewRand(3030, 1)
	day := weather.Day(8)
	for i := 0; i < 200; i++ {
		class := i % 8
		x := world.Sample(class, rng)
		cond := "clear-day"
		if i%2 == 0 {
			x = world.Corrupt(x, imagesim.Snow, imagesim.DefaultSeverity, rng)
			cond = "snow"
		}
		msp := tensor.Max(tensor.Softmax(base.LogitsOne(x)))
		err := c.Ingest(driftlog.Entry{
			Time:  day.Add(time.Duration(i) * time.Minute),
			Drift: msp < 0.95,
			Attrs: map[string]string{
				driftlog.AttrWeather:  cond,
				driftlog.AttrLocation: []string{"A", "B", "C"}[i%3],
				driftlog.AttrDevice:   "dev0",
			},
		}, x)
		if err != nil {
			t.Fatal(err)
		}
	}
	// 1. Diagnose only: causes returned, nothing deployed.
	causes, err := c.Diagnose(AnalyzeRequest{Now: day.AddDate(0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(causes) == 0 {
		t.Fatal("no causes diagnosed")
	}
	vs, err := c.Versions(time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatal("diagnose must not deploy versions")
	}
	// 2. Operator selects the snow cause and adapts it.
	var selected []rca.Cause
	for _, cause := range causes {
		if cause.Matches(map[string]string{driftlog.AttrWeather: "snow"}) {
			selected = append(selected, cause)
		}
	}
	if len(selected) == 0 {
		t.Fatalf("no snow cause among %v", causes)
	}
	versions, err := c.Adapt(AdaptRequest{Causes: selected, Now: day.AddDate(0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != len(selected) {
		t.Fatalf("%d versions for %d causes", len(versions), len(selected))
	}
	// 3. The cause's metrics (possibly infinite risk ratios) survive the
	// JSON round trip and the version materializes.
	if _, err := adapt.Materialize(base, versions[0]); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptRequiresCauses(t *testing.T) {
	c, _, _ := newEnv(t)
	if _, err := c.Adapt(AdaptRequest{}); err == nil {
		t.Fatal("empty cause list must be rejected")
	}
}

func TestOversizedBodyRejected(t *testing.T) {
	c, _, _ := newEnv(t)
	huge := bytes.Repeat([]byte("x"), maxBodyBytes+1024)
	resp, err := c.HTTP.Post(c.BaseURL+"/v1/ingest", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 400 && resp.StatusCode != 413 {
		t.Fatalf("status %d for oversized body", resp.StatusCode)
	}
}

func TestConcurrentIngestOverHTTP(t *testing.T) {
	c, world, _ := newEnv(t)
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	day := weather.Day(3)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := tensor.NewRand(uint64(w), 99)
			for i := 0; i < 25; i++ {
				x := world.Sample(i%8, rng)
				err := c.Ingest(driftlog.Entry{
					Time:  day.Add(time.Duration(i) * time.Minute),
					Drift: i%2 == 0,
					Attrs: map[string]string{
						driftlog.AttrWeather: "rain",
						driftlog.AttrDevice:  fmt.Sprintf("dev_%d", w),
					},
				}, x)
				if err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.LogRows != 200 || st.Samples != 200 {
		t.Fatalf("status %+v after concurrent ingest", st)
	}
}

// ingestFogDay reports 200 entries, half of them fog-corrupted, then
// runs one analysis so the service produces versions.
func ingestFogDay(t *testing.T, c *Client, world *imagesim.World, base *nn.Network) {
	t.Helper()
	rng := tensor.NewRand(4040, 1)
	day := weather.Day(6)
	for i := 0; i < 200; i++ {
		class := i % 8
		x := world.Sample(class, rng)
		cond := "clear-day"
		if i%2 == 0 {
			x = world.Corrupt(x, imagesim.Fog, imagesim.DefaultSeverity, rng)
			cond = "fog"
		}
		msp := tensor.Max(tensor.Softmax(base.LogitsOne(x)))
		if err := c.Ingest(driftlog.Entry{
			Time:  day.Add(time.Duration(i) * time.Minute),
			Drift: msp < 0.95,
			Attrs: map[string]string{
				driftlog.AttrWeather:  cond,
				driftlog.AttrLocation: []string{"A", "B", "C"}[i%3],
				driftlog.AttrDevice:   "dev0",
			},
		}, x); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Analyze(AnalyzeRequest{Now: day.AddDate(0, 0, 1)}); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaPullRoundTrip(t *testing.T) {
	c, world, base := newEnv(t)
	ingestFogDay(t, c, world, base)

	ref, err := c.RefBN()
	if err != nil {
		t.Fatal(err)
	}
	full, err := c.Versions(time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	compact, err := c.Deltas(time.Time{}, ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(compact) != len(full) {
		t.Fatalf("delta pull returned %d of %d versions", len(compact), len(full))
	}
	// The reconstructed versions must behave like the full ones.
	x := tensor.New(32, world.Dim())
	x.RandNormal(tensor.NewRand(5, 5), 0, 1.5)
	for i := range full {
		a, err := adapt.Materialize(base, full[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := adapt.Materialize(base, compact[i])
		if err != nil {
			t.Fatal(err)
		}
		la, lb := a.Logits(x), b.Logits(x)
		for j := range la.Data {
			diff := la.Data[j] - lb.Data[j]
			if diff < -0.05 || diff > 0.05 {
				t.Fatalf("version %s logit %d: |%v| too large", full[i].ID, j, diff)
			}
		}
	}
}

// TestDeltaPullEncodesOnce pins the per-version delta cache: every
// pull, concurrent ones included, serves exactly the bytes a fresh
// DiffBN+Encode produces, the cache holds one entry per version however
// often it is pulled, and a delta served from
// the cache still decodes, passes its checksum and applies to the same
// snapshot as a fresh one.
func TestDeltaPullEncodesOnce(t *testing.T) {
	c, server, world, base := newEnvServer(t)
	ingestFogDay(t, c, world, base)

	ref, err := c.RefBN()
	if err != nil {
		t.Fatal(err)
	}
	full, err := c.Versions(time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(full) == 0 {
		t.Fatal("analysis produced no versions")
	}
	// Concurrent pulls share the cache, as devices do.
	var pulls [3]DeltasResponse
	var wg sync.WaitGroup
	for i := range pulls {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := c.getJSON(context.Background(), "/v1/deltas", &pulls[i]); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	server.deltas.mu.Lock()
	cached := len(server.deltas.m)
	server.deltas.mu.Unlock()
	if cached != len(full) {
		t.Fatalf("cache holds %d deltas for %d versions", cached, len(full))
	}
	for i, v := range full {
		freshDelta, err := adapt.DiffBN(ref, v.Snapshot)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := freshDelta.Encode()
		if err != nil {
			t.Fatal(err)
		}
		want, err := freshDelta.Apply(ref)
		if err != nil {
			t.Fatal(err)
		}
		for p := range pulls {
			dv := pulls[p].Versions[i]
			if dv.ID != v.ID || !bytes.Equal(dv.Delta, fresh) {
				t.Fatalf("pull %d version %s: served %d bytes differ from a fresh encode (%d bytes)",
					p, v.ID, len(dv.Delta), len(fresh))
			}
		}
		served, err := adapt.DecodeBNDelta(pulls[len(pulls)-1].Versions[i].Delta)
		if err != nil {
			t.Fatal(err)
		}
		got, err := served.Apply(ref)
		if err != nil {
			t.Fatalf("version %s: cached delta fails to apply: %v", v.ID, err)
		}
		for l := range want.Layers {
			for _, pair := range [][2][]float64{
				{got.Layers[l].Gamma, want.Layers[l].Gamma},
				{got.Layers[l].Beta, want.Layers[l].Beta},
				{got.Layers[l].RunMean, want.Layers[l].RunMean},
				{got.Layers[l].RunVar, want.Layers[l].RunVar},
			} {
				for j := range pair[1] {
					if math.Float64bits(pair[0][j]) != math.Float64bits(pair[1][j]) {
						t.Fatalf("version %s layer %d: cached delta applies to a different snapshot", v.ID, l)
					}
				}
			}
		}
	}
}
