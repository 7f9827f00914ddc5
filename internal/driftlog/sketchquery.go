// View-side sketch query paths: the approximate twins of the bitset
// Count/AttrValueCounts/PairCounts paths for attributes on the sketch
// tier. Estimates are one-sided (never below the true count) with the
// analytic Count-Min bound surfaced via Approx; views the sketches cannot
// answer (delta views, mutated overlays, WindowScan views) fall back to
// the exact row scans over the retained column ids.
package driftlog

import (
	"math"
	"sort"

	"nazar/internal/sketch"
)

// condSketched reports whether any condition touches a sketched attribute
// (per the view's pinned snapshot).
func (v *View) condSketched(conds []Cond) bool {
	if len(v.sketched) == 0 {
		return false
	}
	for _, c := range conds {
		if v.sketched[c.Attr] {
			return true
		}
	}
	return false
}

// Sketched reports whether any attribute was on the approximate tier
// when this view was pinned. Callers that trade index probes for row
// scans (e.g. incremental mining's per-candidate delta counts) use it
// to detect that the scans lost their cheap bitset backing.
func (v *View) Sketched() bool { return len(v.sketched) > 0 }

// sketchEligible reports whether the sketch layer can answer for this
// view: indexed, not a Since delta, and the overlay (if any) still equals
// the stored drift flags. Counterfactual overlays (epoch > 0) re-route to
// the exact scans — sketches aggregate stored drift, not overlaid drift.
func (v *View) sketchEligible(ov *Overlay) bool {
	return v.sk != nil && len(v.sketched) > 0 && !v.noIndex && !v.delta &&
		(ov == nil || ov.Epoch() == 0)
}

// dedupeConds removes exact duplicate conditions. ok is false when two
// conditions demand different values for the same attribute — a row holds
// one value per attribute, so the conjunction is provably empty and needs
// no sketch at all.
func dedupeConds(conds []Cond) (uniq []Cond, ok bool) {
	uniq = make([]Cond, 0, len(conds))
	for _, c := range conds {
		dup := false
		for _, o := range uniq {
			if o.Attr == c.Attr {
				if o.Value != c.Value {
					return nil, false
				}
				dup = true
				break
			}
		}
		if !dup {
			uniq = append(uniq, c)
		}
	}
	return uniq, true
}

// Approx reports whether queries over conds on this view are answered
// approximately by the sketch tier, and if so the analytic one-sided
// error bound of the sketch that covers the conjunction: the
// single-condition sketch for one condition, the pair ring for two (the
// pair sketch estimates the two-way conjunction itself), each holding
// with probability >= 1 - e^-depth. Conjunctions of three or more
// conditions have no covering sketch; the reported bound is the tightest
// pair marginal's bound — the result is guaranteed within that bound of
// the smallest pair count, which upper-bounds (but may exceed) the true
// conjunction.
func (v *View) Approx(conds []Cond, ov *Overlay) (bool, int) {
	if !v.sketchEligible(ov) || !v.condSketched(conds) {
		return false, 0
	}
	uniq, ok := dedupeConds(conds)
	if !ok {
		return false, 0 // contradictory conditions: answered exactly (zero)
	}
	// The bound depends only on which buckets the window covers, not on
	// the key, so it is read without hashing anything. Two or more
	// conditions are covered by the pair ring: every pair estimate there
	// carries the same bound, so it is also the tightest pair marginal's.
	ring := v.sk.pairRing()
	if len(uniq) == 1 {
		if ring = v.sk.lookupAttr(uniq[0].Attr); ring == nil {
			return true, 0
		}
	}
	b, _ := ring.estimateKeys(nil, v.from, v.to, nil, nil, &v.sketchWork)
	return true, int(b)
}

// orderPair canonicalizes a condition pair (AttrA < AttrB).
func orderPair(a, b Cond) (Cond, Cond) {
	if b.Attr < a.Attr {
		return b, a
	}
	return a, b
}

// edgeRows invokes f(row) for every pinned row of the shard whose time
// falls inside one of the (pairwise disjoint) spans. Sorted shards use
// binary search; unsorted shards scan with a time check.
func (vs *viewShard) edgeRows(edges []span, f func(i int)) {
	if len(edges) == 0 {
		return
	}
	if vs.sorted {
		for _, e := range edges {
			lo := sort.Search(vs.rows, func(i int) bool { return vs.times[i] >= e.from })
			hi := sort.Search(vs.rows, func(i int) bool { return vs.times[i] >= e.to })
			for i := lo; i < hi; i++ {
				f(i)
			}
		}
		return
	}
	for i := 0; i < vs.rows; i++ {
		t := vs.times[i]
		for _, e := range edges {
			if t >= e.from && t < e.to {
				f(i)
				break
			}
		}
	}
}

// estimateOne is the single-key estimateKeys over the view's window.
func (v *View) estimateOne(as *attrSketch, key string) (total, drift uint64, edges []span) {
	keys := [1]string{key}
	var probes [1]sketch.Probe
	var ests [1]keyEstimate
	_, edges = as.estimateKeys(keys[:], v.from, v.to, probes[:], ests[:], &v.sketchWork)
	return ests[0].total, ests[0].drift, edges
}

// condEdgeCounts is the exact count of pinned rows matching c inside the
// partially covered bucket slices edges.
func (v *View) condEdgeCounts(c Cond, edges []span) (total, drift uint64) {
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

// pairEdgeCounts is condEdgeCounts for the conjunction of a and b.
func (v *View) pairEdgeCounts(a, b Cond, edges []span) (total, drift uint64) {
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

// sketchCondEstimate is the windowed one-sided estimate of a single
// sketched condition: Count-Min sums over fully covered buckets plus an
// exact scan of the partially covered bucket edges.
func (v *View) sketchCondEstimate(c Cond) (total, drift uint64) {
	as := v.sk.lookupAttr(c.Attr)
	if as == nil {
		return 0, 0
	}
	total, drift, edges := v.estimateOne(as, c.Value)
	if len(edges) > 0 {
		t, d := v.condEdgeCounts(c, edges)
		total, drift = total+t, drift+d
	}
	return
}

// sketchPairEstimate is sketchCondEstimate for a canonical condition pair
// answered from the pair ring.
func (v *View) sketchPairEstimate(a, b Cond) (total, drift uint64) {
	total, drift, edges := v.estimateOne(v.sk.pairRing(), pairSketchKey(a.Attr, a.Value, b.Attr, b.Value))
	if len(edges) > 0 {
		t, d := v.pairEdgeCounts(a, b, edges)
		total, drift = total+t, drift+d
	}
	return
}

// countSketch answers Count when at least one condition is sketched: the
// elementwise minimum over every one-sided candidate — the exact bitset
// count of the exact-only condition subset, each sketched condition's
// windowed estimate, and each condition pair's windowed estimate — which
// preserves the one-sided overestimate while tightening multi-condition
// results.
func (v *View) countSketch(conds []Cond, ov *Overlay) (CountResult, error) {
	if err := v.checkConds(conds); err != nil {
		return CountResult{}, err
	}
	// Deduping leaves every attribute distinct, so the pair loop below
	// only probes pairs the ring was actually fed (one-sidedness would
	// break on a never-fed same-attribute pair, which estimates zero).
	conds, ok := dedupeConds(conds)
	if !ok {
		return CountResult{}, nil
	}
	exact := make([]Cond, 0, len(conds))
	for _, c := range conds {
		if !v.sketched[c.Attr] {
			exact = append(exact, c)
		}
	}
	total, drift := uint64(math.MaxUint64), uint64(math.MaxUint64)
	upd := func(t, d uint64) {
		if t < total {
			total = t
		}
		if d < drift {
			drift = d
		}
	}
	if len(exact) > 0 {
		cr, err := v.countBitset(exact, ov)
		if err != nil {
			return CountResult{}, err
		}
		upd(uint64(cr.Total), uint64(cr.Drift))
	}
	for _, c := range conds {
		if v.sketched[c.Attr] {
			upd(v.sketchCondEstimate(c))
		}
	}
	for i := 0; i < len(conds); i++ {
		for j := i + 1; j < len(conds); j++ {
			if !v.sketched[conds[i].Attr] && !v.sketched[conds[j].Attr] {
				continue
			}
			a, b := orderPair(conds[i], conds[j])
			upd(v.sketchPairEstimate(a, b))
		}
	}
	if total == math.MaxUint64 {
		return CountResult{}, nil
	}
	if drift > total {
		drift = total
	}
	return CountResult{Total: int(total), Drift: int(drift)}, nil
}

// attrValueCountsSketch fills the grouped aggregation for sketched
// attributes on an eligible view: Space-Saving heavy hitters enumerate
// the candidate values (every value above N/capacity frequency is
// guaranteed present — exactly the values mining's minimum-occurrence
// threshold can keep), all estimated over the window in one bucket-major
// pass. Candidates are global across time; windowed estimates discard
// out-of-window mass.
func (v *View) attrValueCountsSketch(out map[string]map[string]CountResult) {
	for name := range v.sketched {
		if !v.attrs[name] {
			continue
		}
		as := v.sk.lookupAttr(name)
		if as == nil {
			continue
		}
		items := as.hh.Items()
		keys := make([]string, len(items))
		for i, hhi := range items {
			keys[i] = hhi.Key
		}
		ests := make([]keyEstimate, len(keys))
		_, edges := as.estimateKeys(keys, v.from, v.to, nil, ests, &v.sketchWork)
		byVal := out[name]
		for i, val := range keys {
			t, d := ests[i].total, ests[i].drift
			if len(edges) > 0 {
				et, ed := v.condEdgeCounts(Cond{Attr: name, Value: val}, edges)
				t, d = t+et, d+ed
			}
			if t == 0 {
				continue
			}
			if byVal == nil {
				byVal = map[string]CountResult{}
				out[name] = byVal
			}
			byVal[val] = CountResult{Total: int(t), Drift: int(d)}
		}
	}
}

// attrValueCountsScanSketched is the exact fallback for ineligible views:
// one row scan accumulating only the sketched columns.
func (v *View) attrValueCountsScanSketched(out map[string]map[string]CountResult, ov *Overlay) {
	var partial [numShards]map[string]map[string]CountResult
	v.eachShard(func(si int) {
		vs := &v.shards[si]
		var cols []namedCol
		for name, c := range vs.cols {
			if c.sketched {
				cols = append(cols, namedCol{name, c})
			}
		}
		if len(cols) == 0 {
			return
		}
		p := map[string]map[string]CountResult{}
		v.rowsVisited.Add(int64(vs.rows))
		for i := 0; i < vs.rows; i++ {
			if !vs.inWindow(v, i) {
				continue
			}
			d := ov.driftAt(vs, si, i)
			for _, nc := range cols {
				id := nc.c.ids[i]
				if id == 0 {
					continue
				}
				byVal := p[nc.name]
				if byVal == nil {
					byVal = map[string]CountResult{}
					p[nc.name] = byVal
				}
				cr := byVal[nc.c.dict[id]]
				cr.Total++
				if d {
					cr.Drift++
				}
				byVal[nc.c.dict[id]] = cr
			}
		}
		partial[si] = p
	})
	for _, p := range partial {
		for name, byVal := range p {
			dstVals := out[name]
			if dstVals == nil {
				dstVals = map[string]CountResult{}
				out[name] = dstVals
			}
			for val, cr := range byVal {
				acc := dstVals[val]
				acc.Total += cr.Total
				acc.Drift += cr.Drift
				dstVals[val] = acc
			}
		}
	}
}

// pairCountsSketchSection fills pairs touching sketched attributes:
// pair-ring heavy hitters estimated in one bucket-major pass on eligible
// views, an exact row scan over just those attribute pairs otherwise.
func (v *View) pairCountsSketchSection(out map[PairKey]CountResult, ov *Overlay, exclude map[string]bool) {
	if v.sketchEligible(ov) {
		ring := v.sk.pairRing()
		items := ring.hh.Items()
		keys := make([]string, 0, len(items))
		pks := make([]PairKey, 0, len(items))
		for _, hhi := range items {
			k, ok := parsePairKey(hhi.Key)
			if !ok || exclude[k.AttrA] || exclude[k.AttrB] {
				continue
			}
			if !v.attrs[k.AttrA] || !v.attrs[k.AttrB] {
				continue
			}
			keys = append(keys, hhi.Key)
			pks = append(pks, k)
		}
		ests := make([]keyEstimate, len(keys))
		_, edges := ring.estimateKeys(keys, v.from, v.to, nil, ests, &v.sketchWork)
		for i, k := range pks {
			t, d := ests[i].total, ests[i].drift
			if len(edges) > 0 {
				et, ed := v.pairEdgeCounts(Cond{k.AttrA, k.ValA}, Cond{k.AttrB, k.ValB}, edges)
				t, d = t+et, d+ed
			}
			if t == 0 {
				continue
			}
			cr := out[k]
			cr.Total += int(t)
			cr.Drift += int(d)
			out[k] = cr
		}
		return
	}
	for si := range v.shards {
		vs := &v.shards[si]
		cols := vs.sortedCols(exclude)
		for a := 0; a < len(cols); a++ {
			for b := a + 1; b < len(cols); b++ {
				if !cols[a].c.sketched && !cols[b].c.sketched {
					continue
				}
				vs.pairScanInto(v, ov, si, cols[a].name, cols[a].c, cols[b].name, cols[b].c, out)
			}
		}
	}
}
