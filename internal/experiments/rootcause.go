package experiments

import (
	"fmt"
	"math"
	"time"

	"nazar/internal/driftlog"
	"nazar/internal/fim"
	"nazar/internal/metrics"
	"nazar/internal/rca"
	"nazar/internal/tensor"
	"nazar/internal/weather"
)

// Table3Result is the worked FIM example of Tables 2–3.
type Table3Result struct {
	Log     *Table
	Mined   *Table
	Final   *Table
	TopKey  string
	NumFIM  int
	NumFull int
}

// Table3Example reproduces the paper's drift-log walkthrough: the
// five-entry log of Table 2, the mined itemsets with their four metrics
// (Table 3), and the final causes after set reduction + counterfactual
// analysis ({snow}).
func Table3Example() (*Table3Result, error) {
	s := driftlog.NewStore()
	base := time.Date(2020, 1, 15, 0, 0, 0, 0, time.UTC)
	rows := []struct {
		clock, device, weather, location string
		drift                            bool
	}{
		{"06:02:01", "android_42", "clear-day", "Helsinki", false},
		{"06:02:23", "android_21", "clear-day", "New York", false},
		{"06:04:55", "android_21", "clear-day", "New York", true},
		{"08:03:32", "android_21", "snow", "New York", true},
		{"11:05:01", "android_42", "snow", "Helsinki", true},
	}
	logTable := &Table{
		ID:     "table2",
		Title:  "Example drift log",
		Header: []string{"Time", "Device ID", "Weather", "Location", "Drift"},
	}
	for _, r := range rows {
		clock, err := time.Parse("15:04:05", r.clock)
		if err != nil {
			return nil, err
		}
		s.Append(driftlog.Entry{
			Time: base.Add(time.Duration(clock.Hour())*time.Hour +
				time.Duration(clock.Minute())*time.Minute +
				time.Duration(clock.Second())*time.Second),
			Drift:    r.drift,
			SampleID: -1,
			Attrs: map[string]string{
				driftlog.AttrDevice:   r.device,
				driftlog.AttrWeather:  r.weather,
				driftlog.AttrLocation: r.location,
			},
		})
		logTable.AddRow(r.clock, r.device, r.weather, r.location, fmt.Sprint(r.drift))
	}

	v := s.All()
	mined, err := fim.Mine(v, nil, fim.DefaultThresholds())
	if err != nil {
		return nil, err
	}
	minedTable := &Table{
		ID:     "table3",
		Title:  "Frequent itemset mining results (passing thresholds)",
		Header: []string{"Rank", "Occ", "Sup", "RR", "Conf", "Attributes"},
	}
	for i, r := range mined {
		rr := fmt.Sprintf("%.2f", r.Metrics.RiskRatio)
		minedTable.AddRow(fmt.Sprint(i), f3(r.Metrics.Occurrence), f3(r.Metrics.Support),
			rr, f3(r.Metrics.Confidence), r.Items.String())
	}

	causes, err := rca.Analyze(v, rca.DefaultConfig(), rca.Full)
	if err != nil {
		return nil, err
	}
	finalTable := &Table{
		ID:     "table3-final",
		Title:  "Final causes after set reduction + counterfactual analysis",
		Header: []string{"Cause", "Risk ratio"},
	}
	for _, c := range causes {
		finalTable.AddRow(c.String(), fmt.Sprintf("%.2f", c.Metrics.RiskRatio))
	}
	res := &Table3Result{
		Log:     logTable,
		Mined:   minedTable,
		Final:   finalTable,
		NumFIM:  len(mined),
		NumFull: len(causes),
	}
	if len(causes) > 0 {
		res.TopKey = causes[0].Key()
	}
	return res, nil
}

// Table5Scenario names one ground-truth drift combination.
type Table5Scenario struct {
	Name   string
	Causes []weather.Condition
}

// table5Scenarios are the paper's 8 scenarios.
func table5Scenarios() []Table5Scenario {
	return []Table5Scenario{
		{"None", nil},
		{"Rain", []weather.Condition{weather.Rain}},
		{"Snow", []weather.Condition{weather.Snow}},
		{"Fog", []weather.Condition{weather.Fog}},
		{"Fog & Snow", []weather.Condition{weather.Fog, weather.Snow}},
		{"Fog & Rain", []weather.Condition{weather.Fog, weather.Rain}},
		{"Snow & Rain", []weather.Condition{weather.Snow, weather.Rain}},
		{"Snow, Rain & Fog", []weather.Condition{weather.Snow, weather.Rain, weather.Fog}},
	}
}

// Table5Result holds the FMS matrix: rows = RCA variants, columns =
// scenarios.
type Table5Result struct {
	FMS   map[rca.Mode]map[string]float64
	Table *Table
}

// buildTable5Log synthesizes the drift log of one scenario: 14 days of
// real weather over the animal locations, drift applied only for the
// scenario's conditions, detector noise matching the system's operating
// point.
func buildTable5Log(scn Table5Scenario, seed uint64, days, devices, perDay int) (*driftlog.Store, []string, []map[string]string) {
	rng := tensor.NewRand(seed, 0x7AB5)
	gen := weather.NewGenerator(seed)
	s := driftlog.NewStore()
	var truth []string
	var attrs []map[string]string
	isCause := map[weather.Condition]bool{}
	for _, c := range scn.Causes {
		isCause[c] = true
	}
	for d := 0; d < days; d++ {
		day := weather.Day(d)
		for _, loc := range weather.AnimalsLocations {
			cond, _ := gen.ConditionAt(loc, day)
			for dev := 0; dev < devices; dev++ {
				devID := fmt.Sprintf("android_%s_%d", loc, dev)
				for k := 0; k < perDay; k++ {
					drifted := isCause[cond]
					label := "clean"
					if drifted {
						label = string(cond)
					}
					// Detector operating point: ~80 % recall on
					// severity-3 drift, ~12 % false positives.
					detected := rng.Float64() < 0.12
					if drifted {
						detected = rng.Float64() < 0.80
					}
					a := map[string]string{
						driftlog.AttrWeather:  string(cond),
						driftlog.AttrLocation: loc,
						driftlog.AttrDevice:   devID,
					}
					s.Append(driftlog.Entry{
						Time:     day.Add(time.Duration(dev*perDay+k) * time.Minute),
						Drift:    detected,
						SampleID: -1,
						Attrs:    a,
					})
					truth = append(truth, label)
					attrs = append(attrs, a)
				}
			}
		}
	}
	return s, truth, attrs
}

// Table5 reproduces the RCA-variant FMS comparison over the 8 scenarios.
func Table5(o Options) (*Table5Result, error) {
	o = o.withDefaults()
	days, devices, perDay := 14, 4, 2
	if o.Quick {
		days, devices, perDay = 14, 2, 1
	}
	res := &Table5Result{FMS: map[rca.Mode]map[string]float64{}}
	modes := []rca.Mode{rca.FIMOnly, rca.FIMSetReduction, rca.Full}
	for _, m := range modes {
		res.FMS[m] = map[string]float64{}
	}
	table := &Table{
		ID:     "table5",
		Title:  "Fowlkes–Mallows score of RCA variants (1 is optimal)",
		Header: []string{"Scenario", "FIM", "FIM+SR", "FIM+SR+CF"},
	}
	// Seed 2 exhibits all three conditions in the window (checked by
	// the weather tests); offset per scenario for variety.
	for _, scn := range table5Scenarios() {
		s, truth, attrs := buildTable5Log(scn, 2, days, devices, perDay)
		v := s.All()
		row := []string{scn.Name}
		for _, mode := range modes {
			causes, err := rca.Analyze(v, rca.DefaultConfig(), mode)
			if err != nil {
				return nil, err
			}
			pred := make([]string, len(truth))
			for i := range truth {
				pred[i] = rca.CauseLabel(causes, rca.AssignCause(causes, attrs[i]))
			}
			fms := metrics.FowlkesMallows(truth, pred)
			res.FMS[mode][scn.Name] = fms
			row = append(row, f3(fms))
		}
		table.AddRow(row...)
	}
	table.Notes = append(table.Notes,
		"paper: the full pipeline is optimal (1.0) in every scenario except snow (0.874)")
	res.Table = table
	return res, nil
}

// Fig9dPoint is one scalability measurement.
type Fig9dPoint struct {
	Rows int
	// Work is the drift-log work of one analysis: bitmap words ANDed
	// plus rows scanned (driftlog.View.Work). It is deterministic, so
	// the linearity claim is fitted on it.
	Work int64
	// Seconds is the best wall-clock time of three analyses, reported
	// alongside; at these sizes an analysis takes about a millisecond,
	// so a line through it mostly measures timer noise.
	Seconds float64
}

// Fig9dResult holds the RCA scaling measurements plus a linearity
// diagnostic: R² of a least-squares line of work against rows.
type Fig9dResult struct {
	Points []Fig9dPoint
	R2     float64
	Table  *Table
}

// Fig9d measures root-cause-analysis work and runtime as a function of
// drift-log size; the paper reports a completely linear relationship.
func Fig9d(o Options) (*Fig9dResult, error) {
	o = o.withDefaults()
	sizes := []int{20000, 40000, 80000, 160000, 320000}
	if o.Quick {
		sizes = []int{5000, 10000, 20000, 40000}
	}
	res := &Fig9dResult{}
	table := &Table{
		ID:     "fig9d",
		Title:  "Root-cause analysis runtime vs drift-log rows",
		Header: []string{"Rows", "Work (words+rows)", "Runtime (s)"},
	}
	for _, n := range sizes {
		s := buildScalabilityLog(n, o.Seed)
		v := s.All()
		// Minimum of three runs: scheduling noise only ever inflates a
		// measurement, so the minimum is the cleanest estimate. Work is
		// the same on every run; it is read off the first.
		best := math.Inf(1)
		var work int64
		for rep := 0; rep < 3; rep++ {
			before := v.Work()
			start := time.Now()
			if _, err := rca.Analyze(v, rca.DefaultConfig(), rca.Full); err != nil {
				return nil, err
			}
			if secs := time.Since(start).Seconds(); secs < best {
				best = secs
			}
			if rep == 0 {
				after := v.Work()
				work = after.Words - before.Words + after.Rows - before.Rows
			}
		}
		res.Points = append(res.Points, Fig9dPoint{Rows: n, Work: work, Seconds: best})
		table.AddRow(fmt.Sprint(n), fmt.Sprint(work), fmt.Sprintf("%.4f", best))
	}
	res.R2 = linearR2(res.Points)
	table.Notes = append(table.Notes,
		fmt.Sprintf("linear fit of work vs rows: R² = %.4f (paper: completely linear)", res.R2))
	res.Table = table
	return res, nil
}

// buildScalabilityLog synthesizes a large mixed drift log.
func buildScalabilityLog(n int, seed uint64) *driftlog.Store {
	rng := tensor.NewRand(seed, 0x5CA1E)
	s := driftlog.NewStore()
	conditions := []string{"clear-day", "rain", "snow", "fog"}
	entries := make([]driftlog.Entry, 0, n)
	base := weather.Start
	for i := 0; i < n; i++ {
		cond := conditions[rng.IntN(len(conditions))]
		drift := rng.Float64() < 0.12
		if cond != "clear-day" {
			drift = rng.Float64() < 0.7
		}
		entries = append(entries, driftlog.Entry{
			Time:     base.Add(time.Duration(i) * time.Second),
			Drift:    drift,
			SampleID: -1,
			Attrs: map[string]string{
				driftlog.AttrWeather:  cond,
				driftlog.AttrLocation: fmt.Sprintf("city_%d", rng.IntN(10)),
				driftlog.AttrDevice:   fmt.Sprintf("dev_%d", rng.IntN(64)),
			},
		})
	}
	s.AppendBatch(entries)
	return s
}

// linearR2 fits work = a·rows + b and returns R².
func linearR2(points []Fig9dPoint) float64 {
	n := float64(len(points))
	if n < 2 {
		return 1
	}
	var sx, sy, sxx, sxy, syy float64
	for _, p := range points {
		x, y := float64(p.Rows), float64(p.Work)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		syy += y * y
	}
	cov := sxy - sx*sy/n
	varX := sxx - sx*sx/n
	varY := syy - sy*sy/n
	if varX <= 0 || varY <= 0 {
		return 1
	}
	return (cov * cov) / (varX * varY)
}
