package experiments

import (
	"fmt"
	"sort"
	"time"

	"nazar/internal/adapt"
	"nazar/internal/detect"
	"nazar/internal/driftlog"
	"nazar/internal/fim"
	"nazar/internal/imagesim"
	"nazar/internal/metrics"
	"nazar/internal/nn"
	"nazar/internal/pipeline"
	"nazar/internal/rca"
	"nazar/internal/registry"
	"nazar/internal/tensor"
)

// AblationScoresResult compares the confidence scores Nazar could have
// used for its threshold detector.
type AblationScoresResult struct {
	BestF1 map[string]float64
	AUROC  map[string]float64
	Table  *Table
}

// AblationScores sweeps thresholds for MSP, entropy, energy and max-logit
// scores and reports each score's best F1 — the paper found them "almost
// identical", which justified picking the normalized MSP.
func AblationScores(o Options) (*AblationScoresResult, error) {
	o = o.withDefaults()
	r := getAnimalsRig(o, nn.ArchResNet50)
	net := r.net(nn.ArchResNet50)
	perSide := 400
	if o.Quick {
		perSide = 200
	}
	clean, drift, _ := evalSets(r, perSide, imagesim.DefaultSeverity, o.Seed+20)
	cleanLogits := net.Logits(clean).Clone()
	driftLogits := net.Logits(drift).Clone()

	res := &AblationScoresResult{BestF1: map[string]float64{}, AUROC: map[string]float64{}}
	table := &Table{ID: "ablation-scores", Title: "Best F1 and AUROC by confidence score",
		Header: []string{"Score", "Best F1", "At threshold", "AUROC"}}
	for _, s := range []detect.Scorer{detect.MSP{}, detect.NegEntropy{}, detect.Energy{}, detect.MaxLogit{}} {
		cs := detect.ScoreBatch(s, cleanLogits)
		ds := detect.ScoreBatch(s, driftLogits)
		// Sweep thresholds over the observed score range.
		all := append(append([]float64(nil), cs...), ds...)
		sort.Float64s(all)
		var thresholds []float64
		for q := 0.02; q < 1.0; q += 0.02 {
			thresholds = append(thresholds, all[int(q*float64(len(all)-1))])
		}
		best := detect.BestF1(detect.Sweep(cs, ds, thresholds))
		auroc := metrics.AUROC(cs, ds)
		res.BestF1[s.Name()] = best.F1
		res.AUROC[s.Name()] = auroc
		table.AddRow(s.Name(), f3(best.F1), fmt.Sprintf("%.3g", best.Threshold), f3(auroc))
	}
	table.Notes = append(table.Notes, "paper: thresholds on these scores perform almost identically to MSP")
	res.Table = table
	return res, nil
}

// AblationRankingResult compares FIM ranking criteria by resulting FMS.
type AblationRankingResult struct {
	FMS   map[string]float64
	Table *Table
}

// AblationRanking re-ranks the mined itemsets of the three-cause Table 5
// scenario by different criteria before set reduction + counterfactual
// analysis, and scores the resulting clustering. Risk-ratio ranking is
// Nazar's default.
func AblationRanking(o Options) (*AblationRankingResult, error) {
	o = o.withDefaults()
	scn := table5Scenarios()[7] // snow, rain & fog
	days, devices, perDay := 14, 4, 2
	if o.Quick {
		days, devices, perDay = 14, 2, 1
	}
	s, truth, attrs := buildTable5Log(scn, 2, days, devices, perDay)
	v := s.All()

	criteria := []struct {
		name string
		less func(a, b fim.Result) bool
	}{
		{"risk-ratio (Nazar)", nil}, // fim.Rank's native order
		{"support", func(a, b fim.Result) bool { return a.Metrics.Support > b.Metrics.Support }},
		{"confidence", func(a, b fim.Result) bool { return a.Metrics.Confidence > b.Metrics.Confidence }},
		{"occurrence", func(a, b fim.Result) bool { return a.Metrics.Occurrence > b.Metrics.Occurrence }},
	}
	res := &AblationRankingResult{FMS: map[string]float64{}}
	table := &Table{ID: "ablation-ranking", Title: "FMS by FIM ranking criterion (3-cause scenario)",
		Header: []string{"Ranking", "FMS"}}
	for _, c := range criteria {
		mined, err := fim.Mine(v, nil, fim.DefaultThresholds())
		if err != nil {
			return nil, err
		}
		if c.less != nil {
			sort.SliceStable(mined, func(i, j int) bool { return c.less(mined[i], mined[j]) })
		}
		assocs := rca.SetReduction(mined)
		causes, err := rca.Counterfactual(v, assocs, fim.DefaultThresholds())
		if err != nil {
			return nil, err
		}
		pred := make([]string, len(truth))
		for i := range truth {
			pred[i] = rca.CauseLabel(causes, rca.AssignCause(causes, attrs[i]))
		}
		fms := metrics.FowlkesMallows(truth, pred)
		res.FMS[c.name] = fms
		table.AddRow(c.name, f3(fms))
	}
	res.Table = table
	return res, nil
}

// AblationBNOnlyResult compares BN-only vs full-model adaptation.
type AblationBNOnlyResult struct {
	BNAcc, FullAcc     float64
	BNBytes, FullBytes int
	Table              *Table
}

// AblationBNOnly quantifies the §3.4 design choice: adapting only the BN
// layers is nearly as accurate as adapting all parameters while the
// deployable artifact is dramatically smaller.
func AblationBNOnly(o Options) (*AblationBNOnlyResult, error) {
	o = o.withDefaults()
	r := getAnimalsRig(o, nn.ArchResNet50)
	base := r.net(nn.ArchResNet50)
	rng := tensor.NewRand(o.Seed+21, 1)

	pool := r.world.CorruptBatch(r.trainX, imagesim.Fog, imagesim.DefaultSeverity, rng)
	testX, labels := testPartition(r, imagesim.Fog, false, o.Seed+21)

	// BN-only (Nazar).
	bnModel, err := adapt.Adapt(base, pool, adapt.Config{Rng: rng, MinSteps: 20})
	if err != nil {
		return nil, err
	}
	// Full-model: unfreeze everything and run the same TENT loop
	// manually.
	fullModel := base.Clone()
	opt := nn.NewAdam(0.0005)
	bs := 64
	for epoch := 0; epoch < 3; epoch++ {
		for s := 0; s+bs <= pool.Rows; s += bs {
			batch := tensor.New(bs, pool.Cols)
			copy(batch.Data, pool.Data[s*pool.Cols:(s+bs)*pool.Cols])
			fullModel.ZeroGrads()
			logits := fullModel.Forward(batch, nn.Adapt)
			_, dl := nn.Entropy(logits)
			fullModel.BackwardParams(dl)
			opt.Step(fullModel.Params())
		}
	}

	res := &AblationBNOnlyResult{
		BNAcc:     bnModel.Accuracy(testX, labels),
		FullAcc:   fullModel.Accuracy(testX, labels),
		BNBytes:   nn.CaptureBN(bnModel).SizeBytes(),
		FullBytes: fullModel.SizeBytes(),
	}
	table := &Table{ID: "ablation-bnonly", Title: "BN-only vs full-model TENT on fog",
		Header: []string{"Variant", "Fog accuracy", "Artifact size (bytes)"}}
	table.AddRow("no-adapt", pct(base.Accuracy(testX, labels)), "-")
	table.AddRow("BN-only (Nazar)", pct(res.BNAcc), fmt.Sprint(res.BNBytes))
	table.AddRow("full model", pct(res.FullAcc), fmt.Sprint(res.FullBytes))
	table.Notes = append(table.Notes,
		fmt.Sprintf("artifact ratio %.0f× (paper: 217× for ResNet50)", float64(res.FullBytes)/float64(res.BNBytes)))
	res.Table = table
	return res, nil
}

// AblationPoolCapacityResult measures version-selection quality under
// pool-capacity pressure.
type AblationPoolCapacityResult struct {
	// HitRate[capacity] is the fraction of drifted inputs served by a
	// matching adapted version.
	HitRate map[int]float64
	Table   *Table
}

// AblationPoolCapacity installs versions for every corruption type into
// pools of varying capacity and measures how often a drifted input is
// served by its matching version (LRU eviction loses coverage as
// capacity shrinks).
func AblationPoolCapacity(o Options) (*AblationPoolCapacityResult, error) {
	o = o.withDefaults()
	r := getAnimalsRig(o, nn.ArchResNet50)
	base := r.net(nn.ArchResNet50)
	tent, err := getAdaptedSet(o, r, adapt.TENT)
	if err != nil {
		return nil, err
	}
	// Build one version per weather corruption + a handful of others.
	causesOf := func(c imagesim.Corruption) rca.Cause {
		return rca.Cause{Items: fim.NewItemset(driftlog.Cond{Attr: driftlog.AttrWeather, Value: string(c)})}
	}
	corrs := []imagesim.Corruption{imagesim.Rain, imagesim.Snow, imagesim.Fog,
		imagesim.Contrast, imagesim.Brightness, imagesim.DefocusBlur}

	res := &AblationPoolCapacityResult{HitRate: map[int]float64{}}
	table := &Table{ID: "ablation-poolcap", Title: "Version hit rate vs pool capacity",
		Header: []string{"Capacity", "Hit rate"}}
	for _, capacity := range []int{0, 6, 3, 1} {
		pool := registry.NewPool(base, capacity)
		now := time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC)
		for i, c := range corrs {
			v := adapt.BNVersion{
				ID:        fmt.Sprintf("%s-v", c),
				Cause:     causesOf(c),
				Snapshot:  nn.CaptureBN(tent.byCause[c]),
				CreatedAt: now.Add(time.Duration(i) * time.Hour),
			}
			if err := pool.Install(v, v.CreatedAt); err != nil {
				return nil, err
			}
		}
		hits, total := 0, 0
		for _, c := range corrs {
			_, id := pool.Select(map[string]string{driftlog.AttrWeather: string(c)})
			total++
			if id == fmt.Sprintf("%s-v", c) {
				hits++
			}
		}
		rate := float64(hits) / float64(total)
		res.HitRate[capacity] = rate
		label := fmt.Sprint(capacity)
		if capacity == 0 {
			label = "unlimited"
		}
		table.AddRow(label, f3(rate))
	}
	res.Table = table
	return res, nil
}

// AblationThresholdResult measures the end-to-end sensitivity to the
// on-device detector's operating point.
type AblationThresholdResult struct {
	// DriftAcc[threshold] is Nazar's drifted-data accuracy.
	DriftAcc map[float64]float64
	Table    *Table
}

// AblationThreshold runs the cityscapes workload at several MSP
// thresholds. Too low starves RCA of recall (causes never pass the
// confidence gate); too high floods the log with false positives. The
// substrate's calibrated operating point is 0.95 (see EXPERIMENTS.md).
func AblationThreshold(o Options) (*AblationThresholdResult, error) {
	o = o.withDefaults()
	ds := e2eDataset("cityscapes", 0, o.Quick, o.Seed)
	base := e2eBase(ds, nn.ArchResNet50, o.Quick, o.Seed)
	res := &AblationThresholdResult{DriftAcc: map[float64]float64{}}
	table := &Table{ID: "ablation-threshold",
		Title:  "Nazar drifted-data accuracy vs on-device MSP threshold",
		Header: []string{"Threshold", "Drifted accuracy"}}
	windows := e2eWindows(o)
	for _, th := range []float64{0.80, 0.90, 0.95, 0.99} {
		cfg := pipeline.DefaultConfig(pipeline.Nazar, o.Seed)
		cfg.Windows = windows
		cfg.DetectorThreshold = th
		if o.Quick {
			cfg.Cloud.AdaptCfg.MinSteps = 15
		}
		r, err := pipeline.Run(ds, base, cfg)
		if err != nil {
			return nil, err
		}
		m, _ := r.AvgDriftAccLast(windows - 1)
		res.DriftAcc[th] = m
		table.AddRow(fmt.Sprintf("%.2f", th), pct(m))
	}
	res.Table = table
	return res, nil
}
