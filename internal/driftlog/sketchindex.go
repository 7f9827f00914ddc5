// Tiered sketch layer: when an attribute's distinct-value count crosses
// SketchConfig.Threshold, its exact per-value bitmaps are dropped and the
// attribute is answered from bounded-memory streaming summaries instead —
// a ring of window-aligned Count-Min sub-sketches (support counting with a
// one-sided analytic error bound) plus a Space-Saving heavy-hitter tracker
// (candidate enumeration for grouped aggregations). Low-cardinality
// attributes keep the exact PR-5 bitset path untouched; tiering is sticky
// (an attribute never tiers back down) and the dictionary-encoded row ids
// are retained even for sketched columns, so the row-scan oracles remain
// exact and serve as both the differential baseline and the fallback for
// views the sketches cannot answer (delta views, mutated overlays,
// WindowScan views).
//
// Bucket ring: each sketched attribute owns sub-sketches keyed by the
// bucket-aligned start of their time span, created lazily (only time
// ranges with data allocate a bucket). When the ring exceeds MaxBuckets
// the oldest bucket folds into a single "rest" bucket covering everything
// before the live ring — eager eviction keeps memory flat while window
// queries over recent data stay bucket-resolved. Windowed estimates sum
// the Count-Min estimates of fully covered buckets and resolve partially
// covered bucket edges by an exact scan of just that time slice.
//
// Concurrency: sketch feeding happens inside the shard lock of the row
// being appended, and tier-up (which replays history into fresh sketches)
// holds all shard locks, so a row is fed exactly once — either by its
// append or by the replay, never both.
package driftlog

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nazar/internal/sketch"
)

// SketchConfig tunes the tiered sketch layer. The zero value selects the
// defaults below; NewStore uses the zero value.
type SketchConfig struct {
	// Threshold is the distinct-value count above which an attribute
	// tiers from exact bitmaps to sketches (default 4096 — high enough
	// that ordinary categorical attributes never tier).
	Threshold int
	// Width / PairWidth are the Count-Min cells per hash row for value
	// and pair sketches (defaults 2048 / 8192; additive error is
	// ~e·N/width over N increments).
	Width     int
	PairWidth int
	// Depth is the Count-Min hash-row count (default 3; failure
	// probability of the additive bound is e^-depth per query).
	Depth int
	// Bucket is the sub-sketch time alignment (default 10m): windows
	// aligned to it are answered purely from sketches, unaligned window
	// edges fall back to an exact scan of the edge slice.
	Bucket time.Duration
	// MaxBuckets bounds the live ring per attribute (default 96); older
	// buckets fold into a single "rest" sketch.
	MaxBuckets int
	// HeavyHitters / PairHeavyHitters size the Space-Saving candidate
	// trackers (defaults 256 / 2048).
	HeavyHitters     int
	PairHeavyHitters int
	// Seed fixes the hash family; the default is a package constant so
	// results are byte-identical across processes and pool widths.
	Seed uint64
}

const defaultSketchSeed = 0x6e617a61722d3130 // "nazar-10"

func (c SketchConfig) withDefaults() SketchConfig {
	if c.Threshold <= 0 {
		c.Threshold = 4096
	}
	if c.Width <= 0 {
		c.Width = 2048
	}
	if c.PairWidth <= 0 {
		c.PairWidth = 8192
	}
	if c.Depth <= 0 {
		c.Depth = 3
	}
	if c.Bucket <= 0 {
		c.Bucket = 10 * time.Minute
	}
	if c.MaxBuckets <= 0 {
		c.MaxBuckets = 96
	}
	if c.HeavyHitters <= 0 {
		c.HeavyHitters = 256
	}
	if c.PairHeavyHitters <= 0 {
		c.PairHeavyHitters = 2048
	}
	if c.Seed == 0 {
		c.Seed = defaultSketchSeed
	}
	return c
}

// span is a half-open time range [from, to) in unix nanos.
type span struct{ from, to int64 }

// sketchBucket is one window-aligned sub-sketch covering [start, end).
type sketchBucket struct {
	start, end int64
	adds       atomic.Uint64 // increments fed (the N of the error bound)
	cm         *sketch.CountMin
}

// attrSketch is the sketch state of one tiered attribute (or the
// store-global pair ring): the live bucket ring sorted by start, the
// folded "rest" bucket covering everything older, and the heavy-hitter
// candidate tracker. mu guards the ring structure; Count-Min adds are
// atomic, so concurrent feeders only share mu in read mode.
type attrSketch struct {
	width, depth int
	seed         uint64
	bucketNanos  int64
	maxBuckets   int

	mu      sync.RWMutex
	buckets []*sketchBucket // sorted by start, pairwise disjoint
	rest    *sketchBucket   // span strictly before buckets[0]; nil until first fold
	evicted int64

	// restLow is the lowest bucket-aligned time ever fed into rest — the
	// effective start of rest's span. rest.start alone is wrong: rest
	// absorbs every add older than rest.end (including rows older than any
	// bucket it was folded from), and out-of-order folds can leave
	// rest.start above mass rest actually holds, which would let a window
	// "fully cover" rest while excluding some of its mass (overcount past
	// the bound) or skip rest while it holds in-window mass (undercount —
	// breaking one-sidedness).
	restLow atomic.Int64

	hh *sketch.SpaceSaving[string]
}

// lowerRestLow lowers the rest span's effective start to aligned.
func (as *attrSketch) lowerRestLow(aligned int64) {
	for {
		cur := as.restLow.Load()
		if aligned >= cur || as.restLow.CompareAndSwap(cur, aligned) {
			return
		}
	}
}

func newAttrSketch(cfg SketchConfig, width, hhCap int) *attrSketch {
	return &attrSketch{
		width:       width,
		depth:       cfg.Depth,
		seed:        cfg.Seed,
		bucketNanos: int64(cfg.Bucket),
		maxBuckets:  cfg.MaxBuckets,
		hh:          sketch.NewSpaceSaving[string](hhCap),
	}
}

// alignDown floors t to the bucket grid (exact for negative times too —
// zero-Time entries carry a negative UnixNano).
func alignDown(t, step int64) int64 {
	r := t % step
	if r < 0 {
		r += step
	}
	return t - r
}

// findLocked resolves the bucket owning aligned under mu (either mode).
func (as *attrSketch) findLocked(aligned int64) *sketchBucket {
	if as.rest != nil && aligned < as.rest.end {
		return as.rest
	}
	i := sort.Search(len(as.buckets), func(i int) bool { return as.buckets[i].start >= aligned })
	if i < len(as.buckets) && as.buckets[i].start == aligned {
		return as.buckets[i]
	}
	return nil
}

// insertLocked creates the bucket for aligned, folding the oldest live
// bucket(s) into rest when the ring is over capacity. Must hold mu in
// write mode. The returned bucket may be rest when the new bucket itself
// aged out (deep out-of-order append).
func (as *attrSketch) insertLocked(aligned int64) *sketchBucket {
	nb := &sketchBucket{start: aligned, end: aligned + as.bucketNanos,
		cm: sketch.NewCountMin(as.width, as.depth, as.seed)}
	i := sort.Search(len(as.buckets), func(i int) bool { return as.buckets[i].start >= aligned })
	as.buckets = append(as.buckets, nil)
	copy(as.buckets[i+1:], as.buckets[i:])
	as.buckets[i] = nb
	for len(as.buckets) > as.maxBuckets {
		old := as.buckets[0]
		as.buckets = append(as.buckets[:0], as.buckets[1:]...)
		if as.rest == nil {
			as.rest = old
			as.restLow.Store(old.start)
		} else {
			as.lowerRestLow(old.start)
			as.rest.cm.Merge(old.cm)
			as.rest.adds.Add(old.adds.Load())
			if old.start < as.rest.start {
				as.rest.start = old.start
			}
			if old.end > as.rest.end {
				as.rest.end = old.end
			}
		}
		as.evicted++
	}
	if as.rest != nil && aligned < as.rest.end {
		return as.rest
	}
	return nb
}

// add feeds one occurrence. The Count-Min increment happens under mu (read
// mode on the fast path), so a concurrent fold — which merges a bucket's
// counters under the write lock — can never lose it.
func (as *attrSketch) add(key string, t int64, drifted bool) {
	aligned := alignDown(t, as.bucketNanos)
	as.mu.RLock()
	if b := as.findLocked(aligned); b != nil {
		if b == as.rest {
			as.lowerRestLow(aligned)
		}
		b.cm.Add(key, drifted)
		b.adds.Add(1)
		as.mu.RUnlock()
	} else {
		as.mu.RUnlock()
		as.mu.Lock()
		b := as.findLocked(aligned)
		if b == nil {
			b = as.insertLocked(aligned)
		}
		if b == as.rest {
			as.lowerRestLow(aligned)
		}
		b.cm.Add(key, drifted)
		b.adds.Add(1)
		as.mu.Unlock()
	}
	as.hh.Offer(key, 1)
}

// keyEstimate is one key's windowed Count-Min sums over the fully
// covered buckets.
type keyEstimate struct{ total, drift uint64 }

// sketchTally counts a view's sketch-tier query work: keys hashed into
// Count-Min probes and (key, bucket) estimates read. It is deterministic
// like Work but kept apart from it: Work is what the Fig. 9d scaling fit
// is pinned on.
type sketchTally struct{ hashes, probes atomic.Int64 }

// estimateKeys sums the one-sided Count-Min estimates of every key over
// the buckets fully inside [from, to) into ests[i] (each bucket's drift
// is clamped to its total, so the sums keep drift <= total), returning the summed analytic bound and the partially covered
// time slices (edges) the caller must resolve by exact scan; both are the
// same for every key. Buckets with no overlap contribute nothing; time
// ranges with no bucket hold no rows by construction.
//
// The walk is bucket-major under one read-lock hold: each covered
// bucket's counters are probed for every key before the next bucket, so
// a bucket is streamed once while cache-resident instead of once per key,
// and every key sees the same ring. Keys are hashed once, at the first
// covered bucket: a Probe is valid for every bucket of the ring (same
// width, depth and seed). probes is scratch for len(keys) probes (nil
// allocates); ests must hold len(keys) entries.
func (as *attrSketch) estimateKeys(keys []string, from, to int64, probes []sketch.Probe, ests []keyEstimate, tally *sketchTally) (bound uint64, edges []span) {
	clear(ests[:len(keys)])
	as.mu.RLock()
	defer as.mu.RUnlock()
	hashed := false
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
		if start < from || b.end > to {
			lo, hi := max(start, from), min(b.end, to)
			edges = append(edges, span{lo, hi})
			return
		}
		bound += sketch.ErrBound(as.width, n)
		if len(keys) == 0 {
			return
		}
		if !hashed {
			if len(probes) < len(keys) {
				probes = make([]sketch.Probe, len(keys))
			}
			for i, k := range keys {
				probes[i] = b.cm.Probe(k)
			}
			hashed = true
			tally.hashes.Add(int64(len(keys)))
		}
		for i := range keys {
			e := b.cm.EstimateProbe(&probes[i])
			ests[i].total += uint64(e.Total)
			ests[i].drift += uint64(e.Drift)
		}
		tally.probes.Add(int64(len(keys)))
	}
	consider(as.rest)
	for _, b := range as.buckets {
		consider(b)
	}
	return
}

// memory returns (buckets, bytes) of this ring, counting the rest bucket.
func (as *attrSketch) memory() (buckets int, bytes int64) {
	as.mu.RLock()
	defer as.mu.RUnlock()
	for _, b := range as.buckets {
		bytes += int64(b.cm.Bytes())
	}
	buckets = len(as.buckets)
	if as.rest != nil {
		buckets++
		bytes += int64(as.rest.cm.Bytes())
	}
	bytes += int64(as.hh.Bytes())
	return
}

// sketchIndex is the store-global tiered sketch state: one value ring per
// sketched attribute plus a single pair ring fed with every two-attribute
// combination where at least one side is sketched.
type sketchIndex struct {
	cfg    SketchConfig
	tierMu sync.Mutex // serializes tier-up and wholesale rebuilds

	mu    sync.RWMutex
	attrs map[string]*attrSketch
	pairs *attrSketch
}

func newSketchIndex(cfg SketchConfig) *sketchIndex {
	cfg = cfg.withDefaults()
	return &sketchIndex{
		cfg:   cfg,
		attrs: map[string]*attrSketch{},
		pairs: newAttrSketch(cfg, cfg.PairWidth, cfg.PairHeavyHitters),
	}
}

// attr returns (creating if needed) the value ring for a sketched attribute.
func (sk *sketchIndex) attr(name string) *attrSketch {
	sk.mu.RLock()
	as := sk.attrs[name]
	sk.mu.RUnlock()
	if as != nil {
		return as
	}
	sk.mu.Lock()
	defer sk.mu.Unlock()
	if as := sk.attrs[name]; as != nil {
		return as
	}
	as = newAttrSketch(sk.cfg, sk.cfg.Width, sk.cfg.HeavyHitters)
	sk.attrs[name] = as
	return as
}

// lookupAttr is attr without the create (query side).
func (sk *sketchIndex) lookupAttr(name string) *attrSketch {
	sk.mu.RLock()
	defer sk.mu.RUnlock()
	return sk.attrs[name]
}

// pairRing returns the current pair ring (query side). Queries must not
// read sk.pairs unlocked: tier-up swaps in a fresh ring under mu while
// views pinned earlier keep querying.
func (sk *sketchIndex) pairRing() *attrSketch {
	sk.mu.RLock()
	defer sk.mu.RUnlock()
	return sk.pairs
}

// reset discards all sketch state (tier-up and Compact rebuild from a
// full replay). Callers hold tierMu plus every shard lock.
func (sk *sketchIndex) reset() {
	sk.mu.Lock()
	sk.attrs = map[string]*attrSketch{}
	sk.pairs = newAttrSketch(sk.cfg, sk.cfg.PairWidth, sk.cfg.PairHeavyHitters)
	sk.mu.Unlock()
}

// collectStats fills the sketch-tier fields of a Stats snapshot.
func (sk *sketchIndex) collectStats(st *Stats) {
	sk.mu.RLock()
	rings := make([]*attrSketch, 0, len(sk.attrs)+1)
	for _, as := range sk.attrs {
		rings = append(rings, as)
	}
	rings = append(rings, sk.pairs)
	sk.mu.RUnlock()
	for _, as := range rings {
		buckets, bytes := as.memory()
		st.SketchBuckets += buckets
		st.SketchBytes += bytes
		as.mu.RLock()
		st.SketchEvicted += as.evicted
		as.mu.RUnlock()
	}
}

// attrKV is one (attribute, value) of a row being fed; feed requires the
// slice sorted by name so Space-Saving offer order — the only
// order-sensitive operation — is deterministic per row.
type attrKV struct{ name, val string }

// pairSketchKey encodes a canonical (aName < bName) pair occurrence.
// Attribute names and values must not contain NUL (nothing in the system
// produces them; a colliding key would only merge two pair estimates,
// preserving one-sidedness).
func pairSketchKey(aName, aVal, bName, bVal string) string {
	return aName + "\x00" + aVal + "\x00" + bName + "\x00" + bVal
}

// parsePairKey is the inverse of pairSketchKey: ok only for keys with
// exactly three NUL separators.
func parsePairKey(key string) (PairKey, bool) {
	aName, rest, ok1 := strings.Cut(key, "\x00")
	aVal, rest, ok2 := strings.Cut(rest, "\x00")
	bName, bVal, ok3 := strings.Cut(rest, "\x00")
	if !ok1 || !ok2 || !ok3 || strings.Contains(bVal, "\x00") {
		return PairKey{}, false
	}
	return PairKey{AttrA: aName, ValA: aVal, AttrB: bName, ValB: bVal}, true
}

// feed records one row into the sketch layer: each sketched attribute's
// value ring, plus the pair ring for every pair with at least one sketched
// side. kvs must be sorted by attribute name.
func (sk *sketchIndex) feed(sketched map[string]bool, t int64, drifted bool, kvs []attrKV) {
	any := false
	for _, kv := range kvs {
		if sketched[kv.name] {
			any = true
			break
		}
	}
	if !any {
		return
	}
	for _, kv := range kvs {
		if sketched[kv.name] {
			sk.attr(kv.name).add(kv.val, t, drifted)
		}
	}
	for i := 0; i < len(kvs); i++ {
		for j := i + 1; j < len(kvs); j++ {
			if sketched[kvs[i].name] || sketched[kvs[j].name] {
				sk.pairs.add(pairSketchKey(kvs[i].name, kvs[i].val, kvs[j].name, kvs[j].val), t, drifted)
			}
		}
	}
}

// sketchedSet returns the current immutable sketched-attribute snapshot
// (nil when nothing has tiered). Feed paths load it once under the shard
// lock; tier-up installs the successor while holding every shard lock, so
// a row appended under the old snapshot is always covered by the replay.
func (s *Store) sketchedSet() map[string]bool {
	p := s.sketchedPtr.Load()
	if p == nil {
		return nil
	}
	return *p
}

// SketchedAttrs returns the attributes currently answered by sketches, in
// sorted order.
func (s *Store) SketchedAttrs() []string {
	set := s.sketchedSet()
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// tierUp moves attr onto the sketch tier: under every shard lock it
// rebuilds all sketch state from a full replay (so rows appended before
// the threshold crossing are counted exactly once), frees the attribute's
// per-value bitmaps (ids and dictionaries are retained for the exact scan
// paths), and installs the successor sketched-set snapshot. Tiering is
// sticky: sketched attributes never return to the bitmap tier.
func (s *Store) tierUp(attr string) {
	s.sk.tierMu.Lock()
	defer s.sk.tierMu.Unlock()
	cur := s.sketchedSet()
	if cur[attr] {
		return
	}
	next := make(map[string]bool, len(cur)+1)
	for k := range cur {
		next[k] = true
	}
	next[attr] = true
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	s.sk.reset()
	s.replaySketchesLocked(next)
	s.sketchedPtr.Store(&next)
	for i := numShards - 1; i >= 0; i-- {
		s.shards[i].mu.Unlock()
	}
	// The attribute's exact distinct-value tracking set is no longer
	// needed (tiering is sticky).
	s.attrMu.Lock()
	delete(s.card, attr)
	s.attrMu.Unlock()
}

// replaySketchesLocked feeds every current row into (freshly reset)
// sketches and frees the bitmaps of sketched columns. Caller holds tierMu
// and every shard lock. Replay order is canonical (shard-major, row
// order), which fixes Space-Saving offer order deterministically.
func (s *Store) replaySketchesLocked(sketched map[string]bool) {
	for si := range s.shards {
		sh := &s.shards[si]
		names := append([]string(nil), sh.order...)
		sort.Strings(names)
		cols := make([]*column, len(names))
		for i, n := range names {
			cols[i] = sh.cols[n]
			if sketched[n] && !cols[i].sketched {
				cols[i].sketched = true
				for id := range cols[i].bits {
					cols[i].bits[id] = nil
				}
			}
		}
		kvs := make([]attrKV, 0, len(names))
		for r := range sh.times {
			kvs = kvs[:0]
			for i, c := range cols {
				if id := c.ids[r]; id != 0 {
					kvs = append(kvs, attrKV{names[i], c.dict[id]})
				}
			}
			s.sk.feed(sketched, sh.times[r], sh.drift[r], kvs)
		}
	}
}

// feedRowLocked feeds one just-appended row. Caller holds the shard lock
// and has loaded sketched under it.
func (s *Store) feedRowLocked(sketched map[string]bool, t int64, drifted bool, attrs map[string]string) {
	if len(sketched) == 0 || len(attrs) == 0 {
		return
	}
	kvs := make([]attrKV, 0, len(attrs))
	for name, val := range attrs {
		kvs = append(kvs, attrKV{name, val})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].name < kvs[j].name })
	s.sk.feed(sketched, t, drifted, kvs)
}

// observeCardinality records value sightings for attributes still on the
// exact tier and tiers any attribute whose distinct-value count crossed
// the threshold. The read-locked fast path exits without mutation when
// every (attribute, value) is already known, which is the steady state.
func (s *Store) observeCardinality(attrs map[string]string) {
	sketched := s.sketchedSet()
	known := true
	s.attrMu.RLock()
	for name, val := range attrs {
		if sketched[name] {
			continue
		}
		if vals := s.card[name]; vals == nil || !vals[val] {
			known = false
			break
		}
	}
	s.attrMu.RUnlock()
	if known {
		return
	}
	var tier []string
	s.attrMu.Lock()
	// Reload under the lock: a concurrent tier-up may have sketched an
	// attribute (and dropped its tracking set) since the first load.
	sketched = s.sketchedSet()
	for name, val := range attrs {
		if sketched[name] {
			continue
		}
		vals := s.card[name]
		if vals == nil {
			vals = map[string]bool{}
			s.card[name] = vals
		}
		if !vals[val] {
			vals[val] = true
			if len(vals) > s.sk.cfg.Threshold {
				tier = append(tier, name)
			}
		}
	}
	s.attrMu.Unlock()
	sort.Strings(tier)
	for _, name := range tier {
		s.tierUp(name)
	}
}

// trackValues is observeCardinality's columnar twin: it records a batch
// column's used values in one pass and reports whether the attribute just
// crossed the sketch threshold.
func (s *Store) trackValues(name string, vals []string) (crossed bool) {
	s.attrMu.RLock()
	seen := s.card[name]
	known := seen != nil
	if known {
		for _, v := range vals {
			if !seen[v] {
				known = false
				break
			}
		}
	}
	s.attrMu.RUnlock()
	if known {
		return false
	}
	s.attrMu.Lock()
	defer s.attrMu.Unlock()
	if s.sketchedSet()[name] {
		return false
	}
	m := s.card[name]
	if m == nil {
		m = map[string]bool{}
		s.card[name] = m
	}
	for _, v := range vals {
		m[v] = true
	}
	return len(m) > s.sk.cfg.Threshold
}
