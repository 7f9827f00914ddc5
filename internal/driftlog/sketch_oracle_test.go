package driftlog

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nazar/internal/sketch"
	"nazar/internal/tensor"
)

// The per-key sketch query paths: every key re-hashed and looked up in
// every covered bucket under its own read-lock hold. They are the
// reference the bucket-major batch estimator must match bit for bit.

// estimate is the per-key windowed estimate of one key.
func (as *attrSketch) estimate(key string, from, to int64) (total, drift, bound uint64, edges []span) {
	as.mu.RLock()
	defer as.mu.RUnlock()
	consider := func(b *sketchBucket) {
		if b == nil {
			return
		}
		start := b.start
		if b == as.rest {
			start = as.restLow.Load()
		}
		if b.end <= from || start >= to {
			return
		}
		n := b.adds.Load()
		if n == 0 {
			return
		}
		if start >= from && b.end <= to {
			e := b.cm.Estimate(key)
			total += uint64(e.Total)
			drift += uint64(e.Drift)
			bound += sketch.ErrBound(as.width, n)
			return
		}
		lo, hi := start, b.end
		if from > lo {
			lo = from
		}
		if to < hi {
			hi = to
		}
		edges = append(edges, span{lo, hi})
	}
	consider(as.rest)
	for _, b := range as.buckets {
		consider(b)
	}
	if drift > total {
		drift = total
	}
	return
}

func (v *View) oracleCondEstimate(c Cond) (total, drift uint64) {
	as := v.sk.lookupAttr(c.Attr)
	if as == nil {
		return 0, 0
	}
	t, d, _, edges := as.estimate(c.Value, v.from, v.to)
	total, drift = t, d
	for si := range v.shards {
		vs := &v.shards[si]
		col, ok := vs.cols[c.Attr]
		if !ok {
			continue
		}
		id := col.lookup(c.Value)
		if id == 0 {
			continue
		}
		vs.edgeRows(edges, func(i int) {
			if col.ids[i] == id {
				total++
				if vs.drift[i] {
					drift++
				}
			}
		})
	}
	return
}

func (v *View) oraclePairEstimate(a, b Cond) (total, drift uint64) {
	t, d, _, edges := v.sk.pairRing().estimate(pairSketchKey(a.Attr, a.Value, b.Attr, b.Value), v.from, v.to)
	total, drift = t, d
	for si := range v.shards {
		vs := &v.shards[si]
		ca, okA := vs.cols[a.Attr]
		cb, okB := vs.cols[b.Attr]
		if !okA || !okB {
			continue
		}
		ida, idb := ca.lookup(a.Value), cb.lookup(b.Value)
		if ida == 0 || idb == 0 {
			continue
		}
		vs.edgeRows(edges, func(i int) {
			if ca.ids[i] == ida && cb.ids[i] == idb {
				total++
				if vs.drift[i] {
					drift++
				}
			}
		})
	}
	return
}

// oracleCount is Count on a sketch-eligible view with per-key estimates.
func (v *View) oracleCount(conds []Cond) (CountResult, error) {
	if !v.condSketched(conds) {
		return v.Count(conds, nil)
	}
	if err := v.checkConds(conds); err != nil {
		return CountResult{}, err
	}
	conds, ok := dedupeConds(conds)
	if !ok {
		return CountResult{}, nil
	}
	var exact []Cond
	for _, c := range conds {
		if !v.sketched[c.Attr] {
			exact = append(exact, c)
		}
	}
	total, drift := uint64(math.MaxUint64), uint64(math.MaxUint64)
	upd := func(t, d uint64) {
		total, drift = min(total, t), min(drift, d)
	}
	if len(exact) > 0 {
		cr, err := v.countBitset(exact, nil)
		if err != nil {
			return CountResult{}, err
		}
		upd(uint64(cr.Total), uint64(cr.Drift))
	}
	for _, c := range conds {
		if v.sketched[c.Attr] {
			upd(v.oracleCondEstimate(c))
		}
	}
	for i := 0; i < len(conds); i++ {
		for j := i + 1; j < len(conds); j++ {
			if !v.sketched[conds[i].Attr] && !v.sketched[conds[j].Attr] {
				continue
			}
			a, b := orderPair(conds[i], conds[j])
			upd(v.oraclePairEstimate(a, b))
		}
	}
	if total == math.MaxUint64 {
		return CountResult{}, nil
	}
	return CountResult{Total: int(total), Drift: int(min(drift, total))}, nil
}

// oracleApprox is Approx on a sketch-eligible view with per-key bounds.
func (v *View) oracleApprox(conds []Cond) (bool, int) {
	if !v.condSketched(conds) {
		return false, 0
	}
	uniq, ok := dedupeConds(conds)
	if !ok {
		return false, 0
	}
	if len(uniq) == 1 {
		as := v.sk.lookupAttr(uniq[0].Attr)
		if as == nil {
			return true, 0
		}
		_, _, b, _ := as.estimate(uniq[0].Value, v.from, v.to)
		return true, int(b)
	}
	best := uint64(math.MaxUint64)
	for i := 0; i < len(uniq); i++ {
		for j := i + 1; j < len(uniq); j++ {
			if !v.sketched[uniq[i].Attr] && !v.sketched[uniq[j].Attr] {
				continue
			}
			a, b := orderPair(uniq[i], uniq[j])
			_, _, bd, _ := v.sk.pairRing().estimate(pairSketchKey(a.Attr, a.Value, b.Attr, b.Value), v.from, v.to)
			best = min(best, bd)
		}
	}
	if best == math.MaxUint64 {
		best = 0
	}
	return true, int(best)
}

// oracleAttrValueCounts is AttrValueCounts on a sketch-eligible view with
// one per-key estimate per heavy-hitter candidate.
func (v *View) oracleAttrValueCounts() map[string]map[string]CountResult {
	out := v.attrValueCountsBitset(nil, nil)
	for name := range v.sketched {
		if !v.attrs[name] {
			continue
		}
		as := v.sk.lookupAttr(name)
		if as == nil {
			continue
		}
		byVal := out[name]
		for _, hhi := range as.hh.Items() {
			t, d := v.oracleCondEstimate(Cond{Attr: name, Value: hhi.Key})
			if t == 0 {
				continue
			}
			if byVal == nil {
				byVal = map[string]CountResult{}
				out[name] = byVal
			}
			byVal[hhi.Key] = CountResult{Total: int(t), Drift: int(d)}
		}
	}
	return out
}

// oraclePairCounts is PairCounts on a sketch-eligible view with each
// pair-ring candidate parsed, its key rebuilt and estimated on its own.
func (v *View) oraclePairCounts(exclude map[string]bool) map[PairKey]CountResult {
	out := v.pairCountsBitset(nil, exclude)
	for _, hhi := range v.sk.pairRing().hh.Items() {
		k, ok := parsePairKey(hhi.Key)
		if !ok || exclude[k.AttrA] || exclude[k.AttrB] || !v.attrs[k.AttrA] || !v.attrs[k.AttrB] {
			continue
		}
		t, d := v.oraclePairEstimate(Cond{k.AttrA, k.ValA}, Cond{k.AttrB, k.ValB})
		if t == 0 {
			continue
		}
		cr := out[k]
		cr.Total += int(t)
		cr.Drift += int(d)
		out[k] = cr
	}
	return out
}

// wideSketchConfig spreads the log over ~80 100-second buckets with a
// 64-bucket live ring, so cumulative windows cover dozens of buckets and
// the oldest fold into rest.
func wideSketchConfig() SketchConfig {
	cfg := sketchTestConfig()
	cfg.MaxBuckets = 64
	return cfg
}

// wideSketchStore is sketchStore with timestamps spread over 8000s.
func wideSketchStore(r *rand.Rand, n, vers int) *Store {
	s := NewStoreWithSketch(wideSketchConfig())
	base := time.Unix(0, 0).UTC()
	entries := make([]Entry, n)
	for i := range entries {
		v := r.Intn(vers)
		if r.Float64() < 0.5 {
			v = r.Intn(10)
		}
		entries[i] = Entry{
			Time:     base.Add(time.Duration(r.Intn(8000)) * time.Second),
			Drift:    r.Float64() < 0.3,
			SampleID: -1,
			Attrs: map[string]string{
				AttrWeather:   fmt.Sprintf("w%d", r.Intn(6)),
				AttrLocation:  fmt.Sprintf("city_%d", r.Intn(9)),
				"app_version": fmt.Sprintf("1.%d", v),
			},
		}
	}
	s.AppendBatch(entries)
	return s
}

// oracleWindows cut along and across the 100s grid of both stores: the
// cumulative window, aligned multi-bucket windows, windows straddling
// bucket edges at one or both ends, one inside a single bucket, one
// covering only the rest bucket's span, and one past all data.
func oracleWindows() [][2]time.Time {
	base := time.Unix(0, 0).UTC()
	at := func(s int) time.Time { return base.Add(time.Duration(s) * time.Second) }
	return [][2]time.Time{
		{{}, {}},
		{at(0), at(8000)},
		{at(200), at(700)},
		{at(250), at(707)},
		{at(33), at(41)},
		{{}, at(1550)},
		{at(1450), at(7950)},
		{at(5000), at(6000)},
		{at(9000), at(9900)},
	}
}

// TestSketchBatchMatchesOracle is the batch estimator's differential
// test: PairCounts, AttrValueCounts, Count and Approx on sketch-answered
// views equal the per-key oracle exactly — over the small ring with a
// rest bucket, the wide ring with dozens of covered buckets, aligned and
// straddling windows, and pool widths 1 and 8.
func TestSketchBatchMatchesOracle(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			tensor.SetMaxWorkers(workers)
			defer tensor.SetMaxWorkers(0)
			for seed := 0; seed < 2; seed++ {
				stores := map[string]*Store{
					"ring4":  sketchStore(rand.New(rand.NewSource(int64(7000+seed))), 3000, 200, sketchTestConfig()),
					"ring64": wideSketchStore(rand.New(rand.NewSource(int64(7100+seed))), 6000, 400),
				}
				for name, s := range stores {
					if len(s.SketchedAttrs()) == 0 {
						t.Fatalf("%s seed %d: nothing tiered", name, seed)
					}
					for wi, w := range oracleWindows() {
						ctx := fmt.Sprintf("%s seed %d window %d", name, seed, wi)
						checkSketchAgainstOracle(t, ctx, s.Window(w[0], w[1]))
					}
				}
			}
		})
	}
}

func checkSketchAgainstOracle(t *testing.T, ctx string, v *View) {
	t.Helper()
	if !v.sketchEligible(nil) {
		t.Fatalf("%s: view not sketch-eligible", ctx)
	}
	if got, want := v.PairCounts(nil, nil), v.oraclePairCounts(nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: PairCounts differ from the per-key oracle", ctx)
	}
	excl := map[string]bool{AttrLocation: true}
	if got, want := v.PairCounts(nil, excl), v.oraclePairCounts(excl); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: PairCounts excluding %v differ from the per-key oracle", ctx, excl)
	}
	gotAV, wantAV := v.AttrValueCounts(nil), v.oracleAttrValueCounts()
	if !reflect.DeepEqual(gotAV, wantAV) {
		t.Fatalf("%s: AttrValueCounts differ from the per-key oracle", ctx)
	}
	conds := [][]Cond{
		{{"app_version", "no-such-version"}},
		{{"app_version", "1.3"}, {AttrWeather, "w1"}},
		{{"app_version", "1.150"}, {AttrLocation, "city_2"}},
		{{"app_version", "1.0"}, {AttrLocation, "city_2"}, {AttrWeather, "w0"}},
		{{"app_version", "1.1"}, {"app_version", "1.1"}},
		{{"app_version", "1.1"}, {"app_version", "1.2"}},
		{{AttrWeather, "w0"}},
	}
	// A sample of the candidates, in map order: the heavy hitters and
	// whatever tail values the summary holds.
	for val := range gotAV["app_version"] {
		if len(conds) >= 31 {
			break
		}
		conds = append(conds, []Cond{{"app_version", val}}, []Cond{{AttrWeather, "w2"}, {"app_version", val}})
	}
	for _, cs := range conds {
		got, err1 := v.Count(cs, nil)
		want, err2 := v.oracleCount(cs)
		if (err1 == nil) != (err2 == nil) || got != want {
			t.Fatalf("%s: Count(%v) = %+v (%v), oracle %+v (%v)", ctx, cs, got, err1, want, err2)
		}
		gotA, gotB := v.Approx(cs, nil)
		wantA, wantB := v.oracleApprox(cs)
		if gotA != wantA || gotB != wantB {
			t.Fatalf("%s: Approx(%v) = (%v, %d), oracle (%v, %d)", ctx, cs, gotA, gotB, wantA, wantB)
		}
	}
}

// TestSketchPairCountsHashesEachKeyOnce pins the hash-once, bucket-major
// estimator by its deterministic work: PairCounts over B covered buckets
// and K candidates hashes K keys and reads K·B probes — not K·B hashes —
// and none of it lands in Work, which the Fig. 9d fit is pinned on.
func TestSketchPairCountsHashesEachKeyOnce(t *testing.T) {
	s := wideSketchStore(rand.New(rand.NewSource(3)), 6000, 400)
	v := s.All()
	ring := v.sk.pairRing()
	ring.mu.RLock()
	b := len(ring.buckets)
	if ring.rest != nil {
		b++
	}
	ring.mu.RUnlock()
	k := len(ring.hh.Items())
	if b < 48 || k < 2 {
		t.Fatalf("want dozens of buckets and several candidates, got B=%d K=%d", b, k)
	}
	v.PairCounts(nil, map[string]bool{AttrWeather: true, AttrLocation: true})
	if h, p := v.sketchWork.hashes.Load(), v.sketchWork.probes.Load(); h != 0 || p != 0 {
		t.Fatalf("excluded-everything PairCounts hashed %d keys, read %d probes; want none", h, p)
	}
	v = s.All()
	v.PairCounts(nil, nil)
	if h, p := v.sketchWork.hashes.Load(), v.sketchWork.probes.Load(); h != int64(k) || p != int64(k*b) {
		t.Fatalf("PairCounts over B=%d buckets and K=%d candidates: %d hashes, %d probes; want %d and %d",
			b, k, h, p, k, k*b)
	}
	bitsetOnly := s.All()
	bitsetOnly.pairCountsBitset(nil, nil)
	if got, want := v.Work(), bitsetOnly.Work(); got != want {
		t.Fatalf("PairCounts did %+v Work, its bitset pass alone %+v: sketch probes leaked into Work", got, want)
	}
}

// TestSketchQueriesRaceTierUpAndFold runs sketch-answered PairCounts,
// AttrValueCounts, Count and Approx while columnar appends tier two more
// attributes up (each a full sketch rebuild) and push buckets out of the
// ring into rest. Each estimator call reads the ring under one lock hold, so
// every result must stay internally consistent (drift <= total); after
// the writers stop, every query must equal the per-key oracle exactly.
func TestSketchQueriesRaceTierUpAndFold(t *testing.T) {
	cfg := sketchTestConfig()
	cfg.Threshold = 300
	s := sketchStore(rand.New(rand.NewSource(31)), 1500, 2000, cfg)
	if got := s.SketchedAttrs(); len(got) != 1 {
		t.Fatalf("SketchedAttrs = %v, want app_version only", got)
	}
	evicted := s.Stats().SketchEvicted
	base := time.Unix(0, 0).UTC()
	const writers, batches, rows = 2, 12, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + w)))
			for b := 0; b < batches; b++ {
				entries := make([]Entry, rows)
				for i := range entries {
					entries[i] = Entry{
						// Later batches land in later buckets: the ring
						// grows past MaxBuckets and folds into rest.
						Time:     base.Add(time.Duration(1000+100*b+r.Intn(100)) * time.Second),
						Drift:    r.Float64() < 0.3,
						SampleID: -1,
						Attrs: map[string]string{
							AttrWeather:   fmt.Sprintf("w%d", r.Intn(6)),
							"app_version": fmt.Sprintf("1.%d", r.Intn(200)),
							// Devices, then sessions, cross the
							// threshold mid-run: two full rebuilds.
							AttrDevice: fmt.Sprintf("dev-%d-%d-%d", w, b, i),
							"session":  fmt.Sprintf("s-%d-%d-%d", w, b, i/2),
						},
					}
				}
				if err := s.AppendColumns(ColumnsFromEntries(entries)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	var stop atomic.Bool
	var readers sync.WaitGroup
	check := func(ctx string, cr CountResult) {
		if cr.Drift > cr.Total || cr.Total < 0 {
			t.Errorf("%s: inconsistent %+v", ctx, cr)
		}
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for !stop.Load() {
				w := oracleWindows()[r*2]
				v := s.Window(w[0], w[1])
				for k, cr := range v.PairCounts(nil, nil) {
					check(fmt.Sprintf("pair %+v", k), cr)
				}
				for attr, byVal := range v.AttrValueCounts(nil) {
					for val, cr := range byVal {
						check(attr+"="+val, cr)
					}
				}
				cr, err := v.Count([]Cond{{"app_version", "1.3"}, {AttrWeather, "w1"}}, nil)
				if err != nil {
					t.Error(err)
				}
				check("count", cr)
				v.Approx([]Cond{{"app_version", "1.3"}}, nil)
			}
		}(r)
	}
	wg.Wait()
	stop.Store(true)
	readers.Wait()
	if got := s.SketchedAttrs(); len(got) != 3 {
		t.Fatalf("SketchedAttrs = %v after the run, want device and session tiered too", got)
	}
	if s.Stats().SketchEvicted == evicted {
		t.Fatal("no bucket folded into rest during the run")
	}
	for wi, w := range oracleWindows() {
		checkSketchAgainstOracle(t, fmt.Sprintf("after run window %d", wi), s.Window(w[0], w[1]))
	}
}
