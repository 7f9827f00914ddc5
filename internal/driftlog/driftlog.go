// Package driftlog implements the cloud-side drift log: the append-only
// table every device reports into and the query surface that root-cause
// analysis mines.
//
// The paper runs this on Amazon Aurora and implements frequent-itemset
// mining as SQL COUNT aggregations. This store provides the identical
// surface — predicate counting over attribute columns within a time
// window, plus a drift-flag overlay for counterfactual analysis — as an
// embedded, dictionary-encoded columnar table with linear-time scans
// (which is what makes Fig. 9d's runtime-vs-rows relationship linear).
//
// To serve fleet-scale ingestion the table is sharded by device: each
// shard is an independent columnar table behind its own lock, so
// concurrent devices append without contending on a global mutex, and
// window queries snapshot every shard once and then scan lock-free.
// Every row also carries a global sequence number, which defines the
// canonical row order (Entry, SampleIDs, WriteTo) so sharding never
// changes observable ordering or the on-disk format.
package driftlog

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nazar/internal/tensor"
)

// Entry is one drift-log row: the detection verdict plus device metadata.
type Entry struct {
	Time time.Time `json:"time"`
	// Attrs carries all categorical metadata: device ID, location,
	// weather, model version, and anything else the deployment
	// records. Attribute names are free-form.
	Attrs map[string]string `json:"attrs"`
	// Drift is the on-device detector's verdict.
	Drift bool `json:"drift"`
	// SampleID links to an uploaded input sample (-1 when the device
	// did not sample this inference).
	SampleID int64 `json:"sample_id"`
}

// Standard attribute names used by the system components.
const (
	AttrDevice   = "device"
	AttrLocation = "location"
	AttrWeather  = "weather"
	AttrModel    = "model"
)

// numShards is the shard count (power of two; shard = hash & shardMask).
const (
	numShards = 16
	shardMask = numShards - 1
)

// column is a dictionary-encoded attribute column. ID 0 is reserved for
// "attribute missing on this row". bits[id] is the value's row bitmap,
// maintained at append time (bits[0] stays nil; trailing zero words are
// omitted, so a bitmap only grows when its value appears).
type column struct {
	ids   []uint32
	dict  []string          // dict[0] == ""
	index map[string]uint32 // value -> id
	bits  [][]uint64        // parallel to dict
	// sketched marks a column whose attribute tiered onto the sketch
	// layer: per-value bitmaps are freed and no longer maintained (ids
	// and dict stay, so exact row scans still work).
	sketched bool
}

func newColumn(backfill int) *column {
	c := &column{dict: []string{""}, index: map[string]uint32{}, bits: [][]uint64{nil}}
	if backfill > 0 {
		c.ids = make([]uint32, backfill)
	}
	return c
}

func (c *column) idOf(v string) (uint32, bool) {
	id, ok := c.index[v]
	return id, ok
}

func (c *column) intern(v string) uint32 {
	if id, ok := c.index[v]; ok {
		return id
	}
	id := uint32(len(c.dict))
	c.dict = append(c.dict, v)
	c.bits = append(c.bits, nil)
	c.index[v] = id
	return id
}

// shard is one independently locked columnar sub-table.
type shard struct {
	mu        sync.RWMutex
	seqs      []int64 // global sequence numbers (not sorted under concurrency)
	times     []int64 // unix nanos
	drift     []bool
	driftBits []uint64 // bitmap mirror of drift (trailing zero words omitted)
	samples   []int64
	cols      map[string]*column
	order     []string // column names in shard-first-seen order
	// timeSorted tracks whether the shard's timestamps are monotonically
	// non-decreasing (true until an out-of-order append), enabling
	// binary-search window fast paths on views.
	timeSorted bool
}

// Store is the drift log. It is safe for concurrent use: appends from
// different devices land on different shards and proceed in parallel.
type Store struct {
	seq    atomic.Int64 // next global sequence number
	shards [numShards]shard

	// compacted counts rows removed by retention compaction (exposed via
	// Stats for the observability layer).
	compacted atomic.Int64

	// compactions counts Compact calls that removed rows. Compaction
	// renumbers rows and rebuilds dictionaries/bitmaps, so any cache keyed
	// on per-shard row counts must include this generation counter.
	compactions atomic.Int64

	// attrMu guards the store-wide attribute registry (first-seen order
	// across all shards) and the per-attribute distinct-value tracking
	// sets behind the sketch tiering decision.
	attrMu    sync.RWMutex
	attrSeen  map[string]bool
	attrOrder []string
	card      map[string]map[string]bool

	// Tiered sketch layer (see sketchindex.go). sketchedPtr holds the
	// immutable snapshot of sketched attribute names; feed paths load it
	// once under the shard lock.
	sk          *sketchIndex
	sketchedPtr atomic.Pointer[map[string]bool]
}

// NewStore returns an empty drift log with the default sketch tiering
// configuration (threshold 4096 — ordinary categorical attributes stay on
// the exact bitset tier).
func NewStore() *Store {
	return NewStoreWithSketch(SketchConfig{})
}

// NewStoreWithSketch returns an empty drift log with the given sketch
// tiering configuration (zero fields take defaults).
func NewStoreWithSketch(cfg SketchConfig) *Store {
	s := &Store{
		attrSeen: map[string]bool{},
		card:     map[string]map[string]bool{},
		sk:       newSketchIndex(cfg),
	}
	for i := range s.shards {
		s.shards[i].cols = map[string]*column{}
		s.shards[i].timeSorted = true
	}
	return s
}

// shardFor picks the shard for an entry: by device-attribute hash when
// present (so one device's rows stay together), round-robin by sequence
// otherwise.
func shardFor(e Entry, seq int64) int {
	if dev, ok := e.Attrs[AttrDevice]; ok {
		return int(hashString(dev) & shardMask)
	}
	return int(seq & shardMask)
}

// hashString is FNV-1a.
func hashString(s string) uint64 {
	h := uint64(1469598103934665603)
	for _, b := range []byte(s) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

// registerAttrs records attribute names in the store-wide registry.
func (s *Store) registerAttrs(attrs map[string]string) {
	missing := false
	s.attrMu.RLock()
	for name := range attrs {
		if !s.attrSeen[name] {
			missing = true
			break
		}
	}
	s.attrMu.RUnlock()
	if !missing {
		return
	}
	// Collect and sort the new names so concurrent first appearances
	// register in a deterministic relative order.
	var fresh []string
	s.attrMu.Lock()
	for name := range attrs {
		if !s.attrSeen[name] {
			fresh = append(fresh, name)
		}
	}
	sort.Strings(fresh)
	for _, name := range fresh {
		s.attrSeen[name] = true
		s.attrOrder = append(s.attrOrder, name)
	}
	s.attrMu.Unlock()
}

// Append ingests one entry.
func (s *Store) Append(e Entry) {
	s.registerAttrs(e.Attrs)
	s.observeCardinality(e.Attrs)
	seq := s.seq.Add(1) - 1
	sh := &s.shards[shardFor(e, seq)]
	sh.mu.Lock()
	sketched := s.sketchedSet()
	sh.appendLocked(seq, e, sketched)
	s.feedRowLocked(sketched, e.Time.UnixNano(), e.Drift, e.Attrs)
	sh.mu.Unlock()
}

// AppendBatch ingests entries with one lock acquisition per touched
// shard, preserving the slice order in the store's canonical (sequence)
// order.
func (s *Store) AppendBatch(entries []Entry) {
	if len(entries) == 0 {
		return
	}
	for _, e := range entries {
		s.registerAttrs(e.Attrs)
		s.observeCardinality(e.Attrs)
	}
	base := s.seq.Add(int64(len(entries))) - int64(len(entries))
	type job struct {
		seq int64
		e   Entry
	}
	var jobs [numShards][]job
	for i, e := range entries {
		seq := base + int64(i)
		si := shardFor(e, seq)
		jobs[si] = append(jobs[si], job{seq, e})
	}
	for si := range jobs {
		if len(jobs[si]) == 0 {
			continue
		}
		sh := &s.shards[si]
		sh.mu.Lock()
		sketched := s.sketchedSet()
		for _, j := range jobs[si] {
			sh.appendLocked(j.seq, j.e, sketched)
			s.feedRowLocked(sketched, j.e.Time.UnixNano(), j.e.Drift, j.e.Attrs)
		}
		sh.mu.Unlock()
	}
}

func (sh *shard) appendLocked(seq int64, e Entry, sketched map[string]bool) {
	row := len(sh.times)
	t := e.Time.UnixNano()
	if row > 0 && t < sh.times[row-1] {
		sh.timeSorted = false
	}
	sh.seqs = append(sh.seqs, seq)
	sh.times = append(sh.times, t)
	sh.drift = append(sh.drift, e.Drift)
	if e.Drift {
		sh.driftBits = setBit(sh.driftBits, row)
	}
	sh.samples = append(sh.samples, e.SampleID)
	for name, val := range e.Attrs {
		col, ok := sh.cols[name]
		if !ok {
			col = newColumn(row)
			col.sketched = sketched[name]
			sh.cols[name] = col
			sh.order = append(sh.order, name)
		}
		id := col.intern(val)
		col.ids = append(col.ids, id)
		if !col.sketched {
			col.bits[id] = setBit(col.bits[id], row)
		}
	}
	// Backfill missing attributes for this row.
	for _, name := range sh.order {
		col := sh.cols[name]
		if len(col.ids) == row {
			col.ids = append(col.ids, 0)
		}
	}
}

// Len returns the number of rows.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.times)
		sh.mu.RUnlock()
	}
	return n
}

// Stats is an operational snapshot of the store, consumed by the
// observability layer's gauge functions at scrape time.
type Stats struct {
	// Rows is the current row count; ShardRows is its per-shard
	// decomposition (shard balance is the health signal for the
	// device-hash placement).
	Rows      int
	ShardRows []int
	// Attributes is the number of distinct attribute names ever seen.
	Attributes int
	// CompactedRows counts rows removed by retention compaction since
	// the store was created.
	CompactedRows int64
	// OldestTime / NewestTime bound the retained rows' timestamps (zero
	// when the store is empty) — the "snapshot age" of the log.
	OldestTime, NewestTime time.Time
	// IndexBitmaps / IndexWords size the bitset index: live
	// per-(attribute, value) bitmaps (plus drift bitmaps) and the total
	// 64-bit words they hold.
	IndexBitmaps int
	IndexWords   int
	// Sketch tier: attributes answered by sketches, live sub-sketch
	// buckets (pair ring included), total sketch bytes, and buckets
	// folded into "rest" by eviction since the store was created.
	SketchAttrs   int
	SketchBuckets int
	SketchBytes   int64
	SketchEvicted int64
}

// Stats returns the current operational snapshot. It scans row
// timestamps, which is linear in the store size but cheap relative to a
// scrape interval (a few µs per 100k rows).
func (s *Store) Stats() Stats {
	st := Stats{ShardRows: make([]int, numShards), CompactedRows: s.compacted.Load()}
	var oldest, newest int64
	seen := false
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		st.ShardRows[i] = len(sh.times)
		st.Rows += len(sh.times)
		if len(sh.driftBits) > 0 {
			st.IndexBitmaps++
			st.IndexWords += len(sh.driftBits)
		}
		for _, col := range sh.cols {
			for _, bm := range col.bits {
				if bm != nil {
					st.IndexBitmaps++
					st.IndexWords += len(bm)
				}
			}
		}
		for _, t := range sh.times {
			if !seen || t < oldest {
				oldest = t
			}
			if !seen || t > newest {
				newest = t
			}
			seen = true
		}
		sh.mu.RUnlock()
	}
	s.attrMu.RLock()
	st.Attributes = len(s.attrOrder)
	s.attrMu.RUnlock()
	st.SketchAttrs = len(s.sketchedSet())
	s.sk.collectStats(&st)
	if st.Rows > 0 {
		st.OldestTime = time.Unix(0, oldest).UTC()
		st.NewestTime = time.Unix(0, newest).UTC()
	}
	return st
}

// Attributes returns the attribute names in first-seen order.
func (s *Store) Attributes() []string {
	s.attrMu.RLock()
	defer s.attrMu.RUnlock()
	return append([]string(nil), s.attrOrder...)
}

// rowRef locates one row for cross-shard ordering.
type rowRef struct {
	seq   int64
	shard int
	row   int
}

// orderedRows returns every current row sorted by global sequence.
func (s *Store) orderedRows() []rowRef {
	var refs []rowRef
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for r, seq := range sh.seqs {
			refs = append(refs, rowRef{seq: seq, shard: i, row: r})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(refs, func(a, b int) bool { return refs[a].seq < refs[b].seq })
	return refs
}

// Each invokes f on every current row in canonical (ingest-sequence)
// order. The global ordering is computed once for the whole pass, so a
// full-store sweep is O(n log n) — repeated Entry(i) calls re-derive
// the ordering per call and degrade to O(n² log n) on large logs (the
// chaos harnesses audit six-figure row counts).
func (s *Store) Each(f func(i int, e Entry)) {
	refs := s.orderedRows()
	for i, ref := range refs {
		sh := &s.shards[ref.shard]
		sh.mu.RLock()
		e := sh.entryLocked(ref.row)
		sh.mu.RUnlock()
		f(i, e)
	}
}

// Entry reconstructs the i-th row in canonical (ingest-sequence) order —
// for display, debugging and persistence tests.
func (s *Store) Entry(i int) Entry {
	refs := s.orderedRows()
	ref := refs[i]
	sh := &s.shards[ref.shard]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.entryLocked(ref.row)
}

func (sh *shard) entryLocked(i int) Entry {
	e := Entry{
		Time:     time.Unix(0, sh.times[i]).UTC(),
		Drift:    sh.drift[i],
		SampleID: sh.samples[i],
		Attrs:    map[string]string{},
	}
	for _, name := range sh.order {
		col := sh.cols[name]
		if id := col.ids[i]; id != 0 {
			e.Attrs[name] = col.dict[id]
		}
	}
	return e
}

// Cond is an equality predicate on one attribute.
type Cond struct {
	Attr  string
	Value string
}

// viewCol pins one shard column at snapshot time. bits (indexed views
// only) pins the value bitmaps, parallel to dict. sketched columns carry
// no bitmaps — queries on them are answered by the sketch layer or by
// exact row scans over the retained ids.
type viewCol struct {
	ids      []uint32
	dict     []string
	bits     []bmSnap
	sketched bool
}

// lookup resolves a value to its dictionary ID (0 = not present).
func (c viewCol) lookup(v string) uint32 {
	for i := 1; i < len(c.dict); i++ {
		if c.dict[i] == v {
			return uint32(i)
		}
	}
	return 0
}

// viewShard is the immutable snapshot of one shard: slice headers pinned
// at creation, so scans touch no locks and concurrent appends (which only
// write beyond the pinned lengths) never shift results mid-analysis. The
// same argument pins the bitset index: appends only mutate the word
// covering the row being written, so the fully populated word prefix is
// shared by reference and the single partial word at the pinned row
// boundary is copied by value (bmSnap.tail) under the shard lock.
type viewShard struct {
	offset  int // base index of this shard's rows in the view's row numbering
	rows    int
	seqs    []int64
	times   []int64
	drift   []bool
	samples []int64
	cols    map[string]viewCol

	// Bitset index (indexed views only).
	indexed   bool
	fullWords int    // rows / 64
	window    bmSnap // rows passing the view's window predicate
	driftBM   bmSnap // stored drift flags

	// Delta-view predicate (Since): a row qualifies when it is new
	// (row index >= minRow) or was previously outside the window's upper
	// bound (time >= prevTo). Zero minRow accepts every in-window row.
	minRow int
	prevTo int64

	// sorted pins the shard's timestamp monotonicity at snapshot time,
	// enabling binary-search window materialization and edge scans.
	sorted bool
}

// View is a read-only window over the store: the rows whose timestamps
// fall in [From, To). A zero From/To means unbounded on that side.
//
// A View snapshots every shard at creation time; all subsequent reads are
// lock-free and unaffected by concurrent appends. Overlays returned by
// DriftOverlay are indexed by the view's own row numbering and must only
// be passed back to the view that produced them.
type View struct {
	from, to int64
	attrs    map[string]bool // attribute registry pinned at creation
	total    int
	noIndex  bool // WindowScan views: force the row-scan oracle paths
	shards   [numShards]viewShard

	// Sketch layer pinned at creation: the sketched-attribute snapshot
	// and the live sketch index. delta marks Since-derived views, which
	// the sketches cannot answer (they cover whole windows, not row
	// deltas) — those fall back to exact scans for sketched attributes.
	sk       *sketchIndex
	sketched map[string]bool
	delta    bool

	// Deterministic work tallies of the queries run on this view (see
	// Work); atomic because scans fan out over shards.
	wordsVisited, rowsVisited atomic.Int64
	sketchWork                sketchTally
}

// Work is the deterministic work a view's queries have done: bitmap
// words visited by the indexed paths and rows visited by the row-scan
// paths. Unlike wall-clock time it carries no timer or scheduling noise,
// so a scaling claim (RCA work grows linearly in log rows, Fig. 9d) can
// be tested exactly.
type Work struct {
	Words int64 // bitmap words ANDed by the indexed query paths
	Rows  int64 // rows visited by the row-scan query paths
}

// Work returns the view's cumulative query work so far. Safe for
// concurrent use.
func (v *View) Work() Work {
	return Work{Words: v.wordsVisited.Load(), Rows: v.rowsVisited.Load()}
}

// Window returns a view over [from, to). Zero times are unbounded. The
// view carries a pinned snapshot of the bitset index, so Count,
// ClearDrift and AttrValueCounts run as word-wise AND + popcount.
func (s *Store) Window(from, to time.Time) *View { return s.window(from, to, true) }

// WindowScan returns a view with no index snapshot: every query runs the
// retained row-scan loops. It exists for differential tests and
// benchmarks (the scan oracle baseline); results are identical to an
// indexed view's by contract.
func (s *Store) WindowScan(from, to time.Time) *View { return s.window(from, to, false) }

func (s *Store) window(from, to time.Time, indexed bool) *View {
	v := &View{attrs: map[string]bool{}, noIndex: !indexed, sk: s.sk, sketched: s.sketchedSet()}
	if !from.IsZero() {
		v.from = from.UnixNano()
	}
	if to.IsZero() {
		v.to = 1<<63 - 1
	} else {
		v.to = to.UnixNano()
	}
	offset := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		rows := len(sh.times)
		vs := viewShard{
			offset:  offset,
			rows:    rows,
			seqs:    sh.seqs[:rows],
			times:   sh.times[:rows],
			drift:   sh.drift[:rows],
			samples: sh.samples[:rows],
			cols:    make(map[string]viewCol, len(sh.cols)),
			sorted:  sh.timeSorted,
		}
		if indexed {
			fw := rows >> 6
			rem := uint(rows & 63)
			vs.driftBM = snapBitmap(sh.driftBits, fw, rem)
			for name, col := range sh.cols {
				if col.sketched {
					vs.cols[name] = viewCol{ids: col.ids[:rows], dict: col.dict, sketched: true}
					continue
				}
				nvals := len(col.dict)
				bits := make([]bmSnap, nvals)
				for id := 1; id < nvals; id++ {
					bits[id] = snapBitmap(col.bits[id], fw, rem)
				}
				vs.cols[name] = viewCol{ids: col.ids[:rows], dict: col.dict[:nvals], bits: bits}
			}
		} else {
			for name, col := range sh.cols {
				vs.cols[name] = viewCol{ids: col.ids[:rows], dict: col.dict}
			}
		}
		sh.mu.RUnlock()
		v.shards[i] = vs
		if indexed {
			// Outside the lock: reads only the pinned times.
			v.shards[i].buildWindowBM(v)
		}
		offset += rows
	}
	v.total = offset
	// Pin the registry after the rows: appends register a row's
	// attributes before the row lands in a shard, so every attribute of
	// a pinned row is registered by now. Pinned first, a row appended
	// between the two steps could carry an attribute the view rejects
	// as unknown.
	s.attrMu.RLock()
	for _, name := range s.attrOrder {
		v.attrs[name] = true
	}
	s.attrMu.RUnlock()
	return v
}

// buildWindowBM materializes the shard's window-predicate bitmap (one
// pass over the pinned timestamps; skipped entirely for unbounded
// views).
func (vs *viewShard) buildWindowBM(v *View) {
	fw := vs.rows >> 6
	rem := uint(vs.rows & 63)
	vs.fullWords = fw
	words := make([]uint64, fw)
	var tail uint64
	if v.from == 0 && v.to == 1<<63-1 && vs.minRow == 0 {
		for i := range words {
			words[i] = ^uint64(0)
		}
		if rem > 0 {
			tail = 1<<rem - 1
		}
	} else if vs.sorted {
		// Sorted shard: the window predicate selects one contiguous row
		// range — [from, to) becomes [lo, hi) by binary search, and the
		// delta predicate (i >= minRow || t >= prevTo) collapses to
		// i >= min(minRow, first row with t >= prevTo). Materialization
		// is O(rows/64) instead of O(rows), which is what keeps delta
		// views over a grown log proportional to the delta.
		lo := sort.Search(vs.rows, func(i int) bool { return vs.times[i] >= v.from })
		hi := vs.rows
		if v.to != 1<<63-1 {
			hi = sort.Search(vs.rows, func(i int) bool { return vs.times[i] >= v.to })
		}
		if vs.minRow > 0 {
			pTo := sort.Search(vs.rows, func(i int) bool { return vs.times[i] >= vs.prevTo })
			m := vs.minRow
			if pTo < m {
				m = pTo
			}
			if m > lo {
				lo = m
			}
		}
		tail = setBitRange(words, tail, fw, lo, hi)
	} else {
		for i := 0; i < vs.rows; i++ {
			if !vs.inWindow(v, i) {
				continue
			}
			if w := i >> 6; w < fw {
				words[w] |= 1 << (uint(i) & 63)
			} else {
				tail |= 1 << (uint(i) & 63)
			}
		}
	}
	vs.window = bmSnap{words: words, tail: tail}
	vs.indexed = true
}

// setBitRange sets bits [lo, hi) across the word array plus the logical
// tail word at index fw, filling covered words wholesale. Returns the
// updated tail.
func setBitRange(words []uint64, tail uint64, fw, lo, hi int) uint64 {
	set := func(w int, mask uint64) {
		if w < fw {
			words[w] |= mask
		} else {
			tail |= mask
		}
	}
	for lo < hi {
		w := lo >> 6
		end := (w + 1) << 6
		if end > hi {
			end = hi
		}
		mask := ^uint64(0)
		if b := uint(lo) & 63; b > 0 {
			mask &^= 1<<b - 1
		}
		if r := uint(end) & 63; r > 0 {
			mask &= 1<<r - 1
		}
		set(w, mask)
		lo = end
	}
	return tail
}

// All returns a view over every row currently in the store.
func (s *Store) All() *View { return s.Window(time.Time{}, time.Time{}) }

// Bounds returns the view's window as unix nanos (to is 1<<63-1 when
// unbounded) — the identity half of an analysis-cache key.
func (v *View) Bounds() (from, to int64) { return v.from, v.to }

// ShardRows returns the per-shard pinned row counts — the watermark half
// of an analysis-cache key. Shards are append-only between compactions,
// so a previous view's rows form a stable prefix of a later view's.
func (v *View) ShardRows() []int {
	out := make([]int, numShards)
	for i := range v.shards {
		out[i] = v.shards[i].rows
	}
	return out
}

// Since derives the delta view of a grown window from the same pinned
// snapshot: the rows of v that a previous view with per-shard row counts
// prevRows and upper bound prevTo (unix nanos) did not contain — either
// appended after it (row index >= prevRows[shard]) or previously beyond
// its upper bound (time >= prevTo, for cumulative windows whose `to`
// advances). Counts over the delta add to the previous view's counts to
// give v's, which is what incremental mining exploits. prevRows must
// come from ShardRows of a view of the same store with no intervening
// compaction.
func (v *View) Since(prevRows []int, prevTo int64) (*View, error) {
	if len(prevRows) != numShards {
		return nil, fmt.Errorf("driftlog: Since: got %d shard watermarks, want %d", len(prevRows), numShards)
	}
	d := &View{from: v.from, to: v.to, attrs: v.attrs, total: v.total, noIndex: v.noIndex,
		sk: v.sk, sketched: v.sketched, delta: true}
	d.shards = v.shards
	for si := range d.shards {
		vs := &d.shards[si]
		if prevRows[si] < 0 || prevRows[si] > vs.rows {
			return nil, fmt.Errorf("driftlog: Since: shard %d watermark %d out of range [0,%d]", si, prevRows[si], vs.rows)
		}
		vs.minRow = prevRows[si]
		vs.prevTo = prevTo
		if !d.noIndex {
			vs.buildWindowBM(d)
		}
	}
	return d, nil
}

// parallelScanRows is the pinned-row count above which per-shard scans
// fan out over the worker pool.
const parallelScanRows = 2048

// eachShard runs f(i) for every shard, in parallel when the view is large
// enough (and the pool is wider than one worker). f writes only to
// per-shard slots, so scheduling never affects results.
func (v *View) eachShard(f func(i int)) {
	if v.total < parallelScanRows || tensor.Workers() <= 1 {
		for i := range v.shards {
			f(i)
		}
		return
	}
	tensor.ParallelFor(numShards, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			f(i)
		}
	})
}

// inWindow reports whether row i of the shard falls inside the view
// (including the delta predicate of Since-derived views).
func (vs *viewShard) inWindow(v *View, i int) bool {
	t := vs.times[i]
	if t < v.from || t >= v.to {
		return false
	}
	return i >= vs.minRow || t >= vs.prevTo
}

// Len returns the number of rows inside the view.
func (v *View) Len() int {
	if !v.noIndex {
		n := 0
		for si := range v.shards {
			vs := &v.shards[si]
			for _, w := range vs.window.words {
				n += onesCount(w)
			}
			n += onesCount(vs.window.tail)
		}
		return n
	}
	var counts [numShards]int
	v.eachShard(func(si int) {
		vs := &v.shards[si]
		for i := 0; i < vs.rows; i++ {
			if vs.inWindow(v, i) {
				counts[si]++
			}
		}
	})
	n := 0
	for _, c := range counts {
		n += c
	}
	return n
}

// CountResult is the aggregate FIM consumes.
type CountResult struct {
	Total int // rows matching the predicate
	Drift int // of those, rows flagged as drift
}

// colCond is one resolved equality predicate on a shard snapshot.
type colCond struct {
	ids []uint32
	id  uint32
}

// resolveConds maps conditions onto one shard's columns. match=false
// means the predicate can never match in this shard (value or column
// absent there). An attribute unknown to the whole store is an error,
// preserving the unsharded store's contract.
func (v *View) resolveConds(vs *viewShard, conds []Cond) (ccs []colCond, match bool, err error) {
	// Validate every attribute name before any per-shard short-circuit,
	// so the error is independent of which shard a value landed in.
	if err := v.checkConds(conds); err != nil {
		return nil, false, err
	}
	ccs = make([]colCond, 0, len(conds))
	for _, c := range conds {
		col, ok := vs.cols[c.Attr]
		if !ok {
			return nil, false, nil // column never appeared in this shard
		}
		id := col.lookup(c.Value)
		if id == 0 {
			return nil, false, nil // value never seen in this shard
		}
		ccs = append(ccs, colCond{ids: col.ids, id: id})
	}
	return ccs, true, nil
}

// Count aggregates rows matching every condition. The overlay, if
// non-nil, replaces the stored drift flags — the hook counterfactual
// analysis uses to "mark" entries as non-drift without mutating the log.
// On indexed views this is a word-wise AND + popcount over the pinned
// bitmaps; WindowScan views fall back to the row-scan oracle.
func (v *View) Count(conds []Cond, ov *Overlay) (CountResult, error) {
	if v.noIndex {
		return v.CountScan(conds, ov)
	}
	if v.condSketched(conds) {
		// Sketched attributes carry no bitmaps: answer from the sketch
		// layer when the view is sketch-eligible, else exact row scan.
		if v.sketchEligible(ov) {
			return v.countSketch(conds, ov)
		}
		return v.CountScan(conds, ov)
	}
	return v.countBitset(conds, ov)
}

// CountScan is the retained row-scan oracle for Count: result-identical
// by contract, kept for differential tests and as the fallback for
// index-free views.
func (v *View) CountScan(conds []Cond, ov *Overlay) (CountResult, error) {
	var partial [numShards]CountResult
	var errs [numShards]error
	v.eachShard(func(si int) {
		vs := &v.shards[si]
		ccs, match, err := v.resolveConds(vs, conds)
		if err != nil {
			errs[si] = err
			return
		}
		if !match {
			return
		}
		var res CountResult
		v.rowsVisited.Add(int64(vs.rows))
	rows:
		for i := 0; i < vs.rows; i++ {
			if !vs.inWindow(v, i) {
				continue
			}
			for _, cc := range ccs {
				if cc.ids[i] != cc.id {
					continue rows
				}
			}
			res.Total++
			if ov.driftAt(vs, si, i) {
				res.Drift++
			}
		}
		partial[si] = res
	})
	var out CountResult
	for si := range partial {
		if errs[si] != nil {
			return CountResult{}, errs[si]
		}
		out.Total += partial[si].Total
		out.Drift += partial[si].Drift
	}
	return out, nil
}

// ClearDrift clears the overlaid drift flag of every in-window row
// matching the conditions, returning how many flags were cleared. A
// mutating call stamps the overlay with a fresh epoch (see
// Overlay.Epoch). Indexed views clear word-wise; WindowScan views fall
// back to the row-scan oracle.
func (v *View) ClearDrift(conds []Cond, ov *Overlay) (int, error) {
	if v.noIndex || v.condSketched(conds) {
		// Sketched attributes clear via the exact row scan (their ids
		// are retained), so counterfactual clearing is never approximate.
		return v.ClearDriftScan(conds, ov)
	}
	return v.clearDriftBitset(conds, ov)
}

// ClearDriftScan is the retained row-scan oracle for ClearDrift.
func (v *View) ClearDriftScan(conds []Cond, ov *Overlay) (int, error) {
	var cleared [numShards]int
	var errs [numShards]error
	v.eachShard(func(si int) {
		vs := &v.shards[si]
		ccs, match, err := v.resolveConds(vs, conds)
		if err != nil {
			errs[si] = err
			return
		}
		if !match {
			return
		}
		var words []uint64
		v.rowsVisited.Add(int64(vs.rows))
	rows:
		for i := 0; i < vs.rows; i++ {
			if !vs.inWindow(v, i) {
				continue
			}
			for _, cc := range ccs {
				if cc.ids[i] != cc.id {
					continue rows
				}
			}
			if words == nil {
				// Per-shard slots: safe under the parallel fan-out.
				words = ov.materialize(si)
			}
			w, bit := i>>6, uint64(1)<<(uint(i)&63)
			if words[w]&bit != 0 {
				words[w] &^= bit
				cleared[si]++
			}
		}
	})
	n := 0
	for si := range cleared {
		if errs[si] != nil {
			return 0, errs[si]
		}
		n += cleared[si]
	}
	if n > 0 {
		ov.bump()
	}
	return n, nil
}

// AttrValueCounts returns, for each attribute, the per-value totals and
// drift counts inside the view — the single-pass aggregation the first
// apriori level needs (one "SQL GROUP BY" per attribute). Indexed views
// answer with one AND + popcount per (attribute, value) bitmap;
// WindowScan views fall back to the row-scan oracle.
func (v *View) AttrValueCounts(ov *Overlay) map[string]map[string]CountResult {
	return v.AttrValueCountsInto(nil, ov)
}

// AttrValueCountsInto is AttrValueCounts writing into dst (reusing its
// maps when the attribute sets agree), so a caller aggregating every
// window can run allocation-free in steady state. dst may be nil.
func (v *View) AttrValueCountsInto(dst map[string]map[string]CountResult, ov *Overlay) map[string]map[string]CountResult {
	if v.noIndex {
		return v.attrValueCountsScanInto(dst, ov)
	}
	out := v.attrValueCountsBitset(dst, ov)
	if len(v.sketched) > 0 {
		// Sketched attributes contributed nothing to the bitset pass;
		// fill them from heavy-hitter candidates (eligible views) or an
		// exact row scan over just those columns.
		if v.sketchEligible(ov) {
			v.attrValueCountsSketch(out)
		} else {
			v.attrValueCountsScanSketched(out, ov)
		}
	}
	return out
}

// AttrValueCountsScan is the retained row-scan oracle for
// AttrValueCounts.
func (v *View) AttrValueCountsScan(ov *Overlay) map[string]map[string]CountResult {
	return v.attrValueCountsScanInto(nil, ov)
}

func (v *View) attrValueCountsScanInto(dst map[string]map[string]CountResult, ov *Overlay) map[string]map[string]CountResult {
	var partial [numShards]map[string]map[string]CountResult
	v.eachShard(func(si int) {
		vs := &v.shards[si]
		out := map[string]map[string]CountResult{}
		type namedCol struct {
			name string
			c    viewCol
		}
		cols := make([]namedCol, 0, len(vs.cols))
		for name, c := range vs.cols {
			cols = append(cols, namedCol{name, c})
		}
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
				byVal := out[nc.name]
				if byVal == nil {
					byVal = map[string]CountResult{}
					out[nc.name] = byVal
				}
				val := nc.c.dict[id]
				cr := byVal[val]
				cr.Total++
				if d {
					cr.Drift++
				}
				byVal[val] = cr
			}
		}
		partial[si] = out
	})
	out := resetAttrValueCounts(dst, v)
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
	return out
}

// namedCol pairs a shard column with its attribute name.
type namedCol struct {
	name string
	c    viewCol
}

// sortedCols collects the shard's non-excluded columns in name order,
// so pair keys come out canonical (AttrA < AttrB).
func (vs *viewShard) sortedCols(exclude map[string]bool) []namedCol {
	cols := make([]namedCol, 0, len(vs.cols))
	for name, c := range vs.cols {
		if exclude[name] {
			continue
		}
		cols = append(cols, namedCol{name, c})
	}
	sort.Slice(cols, func(i, j int) bool { return cols[i].name < cols[j].name })
	return cols
}

// PairKey identifies a two-attribute value combination (attributes in
// lexicographic order).
type PairKey struct {
	AttrA, ValA string
	AttrB, ValB string
}

// Conds returns the pair as query conditions.
func (k PairKey) Conds() []Cond {
	return []Cond{{Attr: k.AttrA, Value: k.ValA}, {Attr: k.AttrB, Value: k.ValB}}
}

// PairCounts aggregates the totals and drift counts of every
// two-attribute value combination present in the view (excluding the
// listed attributes). This replaces the per-candidate scans of the
// apriori level-2 join. On indexed views each attribute pair is counted
// by popcounting the cross product of its value bitmaps (falling back
// to a row scan for pathologically high-cardinality pairs, see
// maxPairCross); WindowScan views run the retained grouped row scan.
func (v *View) PairCounts(ov *Overlay, exclude map[string]bool) map[PairKey]CountResult {
	if v.noIndex {
		return v.PairCountsScan(ov, exclude)
	}
	out := v.pairCountsBitset(ov, exclude)
	if len(v.sketched) > 0 {
		// Pairs touching sketched attributes were skipped by the bitset
		// pass; fill them from the pair ring (eligible views) or an
		// exact row scan over just those attribute pairs.
		v.pairCountsSketchSection(out, ov, exclude)
	}
	return out
}

// PairCountsScan is the retained grouped row-scan oracle for
// PairCounts: one pass over the rows, O(rows·k²) for k attributes per
// row, fanned out per shard on large views.
func (v *View) PairCountsScan(ov *Overlay, exclude map[string]bool) map[PairKey]CountResult {
	var partial [numShards]map[PairKey]CountResult
	v.eachShard(func(si int) {
		vs := &v.shards[si]
		cols := vs.sortedCols(exclude)
		out := map[PairKey]CountResult{}
		v.rowsVisited.Add(int64(vs.rows))
		for i := 0; i < vs.rows; i++ {
			if !vs.inWindow(v, i) {
				continue
			}
			d := ov.driftAt(vs, si, i)
			for a := 0; a < len(cols); a++ {
				ida := cols[a].c.ids[i]
				if ida == 0 {
					continue
				}
				for b := a + 1; b < len(cols); b++ {
					idb := cols[b].c.ids[i]
					if idb == 0 {
						continue
					}
					k := PairKey{
						AttrA: cols[a].name, ValA: cols[a].c.dict[ida],
						AttrB: cols[b].name, ValB: cols[b].c.dict[idb],
					}
					cr := out[k]
					cr.Total++
					if d {
						cr.Drift++
					}
					out[k] = cr
				}
			}
		}
		partial[si] = out
	})
	out := map[PairKey]CountResult{}
	for _, p := range partial {
		for k, cr := range p {
			acc := out[k]
			acc.Total += cr.Total
			acc.Drift += cr.Drift
			out[k] = acc
		}
	}
	return out
}

// SampleIDs returns the sample IDs (≥ 0 only) of in-window rows matching
// the conditions, in canonical (ingest-sequence) row order — how
// adaptation gathers the uploaded images of a root cause.
func (v *View) SampleIDs(conds []Cond) ([]int64, error) {
	type hit struct {
		seq int64
		id  int64
	}
	var partial [numShards][]hit
	var errs [numShards]error
	v.eachShard(func(si int) {
		vs := &v.shards[si]
		ccs, match, err := v.resolveConds(vs, conds)
		if err != nil {
			errs[si] = err
			return
		}
		if !match {
			return
		}
		v.rowsVisited.Add(int64(vs.rows))
	rows:
		for i := 0; i < vs.rows; i++ {
			if !vs.inWindow(v, i) {
				continue
			}
			for _, cc := range ccs {
				if cc.ids[i] != cc.id {
					continue rows
				}
			}
			if vs.samples[i] >= 0 {
				partial[si] = append(partial[si], hit{seq: vs.seqs[i], id: vs.samples[i]})
			}
		}
	})
	var hits []hit
	for si := range partial {
		if errs[si] != nil {
			return nil, errs[si]
		}
		hits = append(hits, partial[si]...)
	}
	sort.Slice(hits, func(a, b int) bool { return hits[a].seq < hits[b].seq })
	var out []int64
	for _, h := range hits {
		out = append(out, h.id)
	}
	return out, nil
}
