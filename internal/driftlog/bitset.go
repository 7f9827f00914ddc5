// Bitset index layer: per-(attribute, value) bitmaps maintained at
// append time in every shard, plus a bitset drift/clear overlay, so
// support counting (Count, ClearDrift, AttrValueCounts) is a word-wise
// AND + popcount instead of a row scan. The row-scan loops are retained
// as differential-test oracles (CountScan, ClearDriftScan,
// AttrValueCountsScan) — the same contract as the blocked-vs-naive
// tensor kernels.
//
// Concurrency model: a bitmap word is immutable once every row it covers
// has been appended, and appends only ever touch the word holding the
// row being written. A View therefore pins, per bitmap, the fully
// populated word prefix by reference (race-free against concurrent
// appends) plus a by-value copy of the one partial word at the pinned
// row boundary, taken under the shard lock (bmSnap.tail).
package driftlog

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// onesCount is math/bits.OnesCount64 (named so driftlog.go needs no
// extra import).
func onesCount(w uint64) int { return bits.OnesCount64(w) }

// setBit grows words to cover bit i (zero-filling) and sets it.
func setBit(words []uint64, i int) []uint64 {
	w := i >> 6
	for len(words) <= w {
		words = append(words, 0)
	}
	words[w] |= 1 << (uint(i) & 63)
	return words
}

// bmSnap is an immutable snapshot of one bitmap at view-creation time:
// the fully populated word prefix (shared with the live bitmap) plus the
// partial word at the pinned row count, copied by value. A bitmap may be
// shorter than the shard when its value stopped appearing — missing
// words are implicitly zero.
type bmSnap struct {
	words []uint64
	tail  uint64 // logical word index fullWords; 0 when rows%64 == 0
}

// snapBitmap pins one live bitmap. fullWords = rows/64, rem = rows%64.
// Must be called under the shard lock.
func snapBitmap(live []uint64, fullWords int, rem uint) bmSnap {
	p := len(live)
	if p > fullWords {
		p = fullWords
	}
	s := bmSnap{words: live[:p]}
	if rem > 0 && len(live) > fullWords {
		s.tail = live[fullWords] & (1<<rem - 1)
	}
	return s
}

// word returns the bitmap word at index w (fullWords is the tail's
// logical position).
func (b bmSnap) word(w, fullWords int) uint64 {
	if w < len(b.words) {
		return b.words[w]
	}
	if w == fullWords {
		return b.tail
	}
	return 0
}

// effLen is the number of words that can be non-zero.
func (b bmSnap) effLen(fullWords int) int {
	if b.tail != 0 {
		return fullWords + 1
	}
	return len(b.words)
}

// overlayEpochSeq issues globally unique overlay epochs; epoch 0 always
// means "identical to the stored drift flags", which is what memoized
// support caches key on.
var overlayEpochSeq atomic.Uint64

// Overlay is the counterfactual drift overlay: a bitset copy of the
// stored drift flags that ClearDrift mutates without touching the log.
// An Overlay must only be used with the View that produced it. The zero
// epoch marks an overlay that still equals the stored flags; every
// mutating ClearDrift assigns a fresh globally unique epoch, which is
// the invalidation signal memoized support caches key on.
//
// Overlays are pooled: call Release when done to recycle the word
// buffers (using an overlay after Release is a caller bug).
type Overlay struct {
	v     *View
	epoch uint64
	// shards[si] is the materialized drift bitset of shard si (fully
	// covering its pinned rows), valid only while live[si] is set; an
	// unmaterialized shard means "unchanged from the stored drift
	// flags", so a fresh overlay allocates nothing. The buffers stay
	// attached across Release/DriftOverlay cycles, which is what makes
	// the steady-state counterfactual loop allocation-free.
	shards [numShards][]uint64
	live   [numShards]bool
}

var overlayPool = sync.Pool{New: func() any { return new(Overlay) }}

// DriftOverlay returns a fresh overlay equal to the stored drift flags.
// Shards materialize lazily on first mutation, so creation is O(1); the
// overlay and its buffers come from a pool (see Release).
func (v *View) DriftOverlay() *Overlay {
	ov := overlayPool.Get().(*Overlay)
	ov.v = v
	ov.epoch = 0
	return ov
}

// Epoch identifies the overlay's mutation state: 0 while identical to
// the stored drift flags, then a globally unique value after every
// mutating ClearDrift.
func (ov *Overlay) Epoch() uint64 { return ov.epoch }

// Release recycles the overlay (word buffers included) back to the
// pool. The overlay must not be used afterwards.
func (ov *Overlay) Release() {
	ov.live = [numShards]bool{}
	ov.v = nil
	ov.epoch = 0
	overlayPool.Put(ov)
}

// words returns shard si's materialized drift words, or nil while the
// shard still equals the stored flags. Nil-receiver safe.
func (ov *Overlay) words(si int) []uint64 {
	if ov == nil || !ov.live[si] {
		return nil
	}
	return ov.shards[si]
}

// materialize builds shard si's mutable word copy from the stored drift
// flags, reusing the buffer kept from earlier overlay cycles.
func (ov *Overlay) materialize(si int) []uint64 {
	if ov.live[si] {
		return ov.shards[si]
	}
	vs := &ov.v.shards[si]
	nw := (vs.rows + 63) >> 6
	w := ov.shards[si]
	if cap(w) < nw {
		w = make([]uint64, nw)
	} else {
		w = w[:nw]
	}
	if vs.indexed {
		copy(w, vs.driftBM.words)
		for i := len(vs.driftBM.words); i < nw; i++ {
			w[i] = 0
		}
		if rem := uint(vs.rows & 63); rem > 0 {
			w[vs.fullWords] = vs.driftBM.tail
		}
	} else {
		for i := range w {
			w[i] = 0
		}
		for i, d := range vs.drift {
			if d {
				w[i>>6] |= 1 << (uint(i) & 63)
			}
		}
	}
	ov.shards[si] = w
	ov.live[si] = true
	return w
}

// driftAt reads one row's (possibly overlaid) drift flag; a nil overlay
// reads the stored flag. This is the row-wise access path of the scan
// oracles and PairCounts.
func (ov *Overlay) driftAt(vs *viewShard, si, row int) bool {
	w := ov.words(si)
	if w == nil {
		return vs.drift[row]
	}
	return w[row>>6]&(1<<(uint(row)&63)) != 0
}

// Get reports the overlaid drift flag of row i in the view's row
// numbering (test/diagnostic helper; scans use driftAt).
func (ov *Overlay) Get(i int) bool {
	for si := range ov.v.shards {
		vs := &ov.v.shards[si]
		if i < vs.offset+vs.rows {
			return ov.driftAt(vs, si, i-vs.offset)
		}
	}
	return false
}

// bump assigns a fresh epoch after a mutating clear.
func (ov *Overlay) bump() { ov.epoch = overlayEpochSeq.Add(1) }

// condBitmaps resolves equality predicates onto one shard's value
// bitmaps. match=false means the predicate can never match in this
// shard. Attribute existence is checked by the caller (checkConds).
// dst is the caller's (stack) buffer for the common small-itemset case.
func (vs *viewShard) condBitmaps(conds []Cond, dst []bmSnap) (bms []bmSnap, match bool) {
	bms = dst[:0]
	for _, c := range conds {
		col, ok := vs.cols[c.Attr]
		if !ok {
			return nil, false // column never appeared in this shard
		}
		id := col.lookup(c.Value)
		if id == 0 {
			return nil, false // value never seen in this shard
		}
		if int(id) >= len(col.bits) {
			return nil, false
		}
		bms = append(bms, col.bits[id])
	}
	return bms, true
}

// andPopcount intersects the condition bitmaps with the shard's window
// bitmap and returns the matching row count plus, of those, the rows
// whose drift flag is set — read from ovWords when non-nil, the stored
// drift bitmap otherwise, and the number of words it visited. Pure
// word-wise AND + popcount: O(rows/64).
func (vs *viewShard) andPopcount(bms []bmSnap, ovWords []uint64) (total, drift, words int) {
	fw := vs.fullWords
	n := vs.window.effLen(fw)
	for _, bm := range bms {
		if e := bm.effLen(fw); e < n {
			n = e
		}
	}
	for w := 0; w < n; w++ {
		acc := vs.window.word(w, fw)
		for _, bm := range bms {
			acc &= bm.word(w, fw)
		}
		if acc == 0 {
			continue
		}
		total += bits.OnesCount64(acc)
		var dw uint64
		if ovWords != nil {
			dw = ovWords[w]
		} else {
			dw = vs.driftBM.word(w, fw)
		}
		drift += bits.OnesCount64(acc & dw)
	}
	return total, drift, n
}

// checkConds validates attribute names against the view's pinned
// registry (the unsharded store's unknown-attribute contract).
func (v *View) checkConds(conds []Cond) error {
	for _, c := range conds {
		if !v.attrs[c.Attr] {
			return fmt.Errorf("driftlog: unknown attribute %q", c.Attr)
		}
	}
	return nil
}

// countBitset is the indexed Count path: word-wise AND + popcount per
// shard, sequential (popcounting a shard is far below the parallel
// fan-out's break-even point).
func (v *View) countBitset(conds []Cond, ov *Overlay) (CountResult, error) {
	if err := v.checkConds(conds); err != nil {
		return CountResult{}, err
	}
	var out CountResult
	var buf [4]bmSnap
	words := 0
	for si := range v.shards {
		vs := &v.shards[si]
		if vs.rows == 0 {
			continue
		}
		bms, match := vs.condBitmaps(conds, buf[:])
		if !match {
			continue
		}
		t, d, n := vs.andPopcount(bms, ov.words(si))
		out.Total += t
		out.Drift += d
		words += n
	}
	v.wordsVisited.Add(int64(words))
	return out, nil
}

// clearDriftBitset clears the overlaid drift flag of every in-window
// row matching the conditions: overlay &^= (conds AND window), counting
// cleared bits by popcount.
func (v *View) clearDriftBitset(conds []Cond, ov *Overlay) (int, error) {
	if err := v.checkConds(conds); err != nil {
		return 0, err
	}
	cleared, words := 0, 0
	var buf [4]bmSnap
	for si := range v.shards {
		vs := &v.shards[si]
		if vs.rows == 0 {
			continue
		}
		bms, match := vs.condBitmaps(conds, buf[:])
		if !match {
			continue
		}
		fw := vs.fullWords
		n := vs.window.effLen(fw)
		for _, bm := range bms {
			if e := bm.effLen(fw); e < n {
				n = e
			}
		}
		words += n
		var ovWords []uint64
		for w := 0; w < n; w++ {
			acc := vs.window.word(w, fw)
			for _, bm := range bms {
				acc &= bm.word(w, fw)
			}
			if acc == 0 {
				continue
			}
			if ovWords == nil {
				ovWords = ov.materialize(si)
			}
			if hit := ovWords[w] & acc; hit != 0 {
				cleared += bits.OnesCount64(hit)
				ovWords[w] &^= hit
			}
		}
	}
	v.wordsVisited.Add(int64(words))
	if cleared > 0 {
		ov.bump()
	}
	return cleared, nil
}

// attrValueCountsBitset is the indexed grouped aggregation: one
// AND+popcount per (attribute, value) bitmap instead of a row scan.
func (v *View) attrValueCountsBitset(dst map[string]map[string]CountResult, ov *Overlay) map[string]map[string]CountResult {
	out := resetAttrValueCounts(dst, v)
	words := 0
	for si := range v.shards {
		vs := &v.shards[si]
		if vs.rows == 0 {
			continue
		}
		ovWords := ov.words(si)
		var one [1]bmSnap
		for name, col := range vs.cols {
			byVal := out[name]
			for id := 1; id < len(col.bits); id++ {
				one[0] = col.bits[id]
				t, d, n := vs.andPopcount(one[:], ovWords)
				words += n
				if t == 0 {
					continue
				}
				if byVal == nil {
					byVal = map[string]CountResult{}
					out[name] = byVal
				}
				cr := byVal[col.dict[id]]
				cr.Total += t
				cr.Drift += d
				byVal[col.dict[id]] = cr
			}
		}
	}
	v.wordsVisited.Add(int64(words))
	return out
}

// resetAttrValueCounts prepares the result map, reusing dst's maps when
// provided (AttrValueCountsInto's steady-state zero-allocation path).
func resetAttrValueCounts(dst map[string]map[string]CountResult, v *View) map[string]map[string]CountResult {
	if dst == nil {
		dst = make(map[string]map[string]CountResult, len(v.attrs))
	}
	for name, byVal := range dst {
		if !v.attrs[name] {
			delete(dst, name)
			continue
		}
		for val := range byVal {
			delete(byVal, val)
		}
	}
	for name := range v.attrs {
		if dst[name] == nil {
			dst[name] = map[string]CountResult{}
		}
	}
	return dst
}

// maxPairCross bounds the value cross product per attribute pair that
// the bitset PairCounts path enumerates. A pair of value bitmaps costs
// ~rows/64 word operations, a row visit costs one map update (~20x a
// word op), so popcounting wins while |Va|·|Vb| stays under a few
// hundred; beyond that the shard falls back to a row scan for that
// attribute pair only.
const maxPairCross = 1024

// pairCountsBitset is the indexed PairCounts path: for each attribute
// pair, AND the window with each value bitmap of the first attribute
// once, then popcount against each value bitmap of the second.
func (v *View) pairCountsBitset(ov *Overlay, exclude map[string]bool) map[PairKey]CountResult {
	out := map[PairKey]CountResult{}
	var tmp []uint64
	words := 0
	for si := range v.shards {
		vs := &v.shards[si]
		if vs.rows == 0 {
			continue
		}
		cols := vs.sortedCols(exclude)
		fw := vs.fullWords
		ovWords := ov.words(si)
		n := vs.window.effLen(fw)
		if cap(tmp) < n {
			tmp = make([]uint64, n)
		}
		for a := 0; a < len(cols); a++ {
			for b := a + 1; b < len(cols); b++ {
				ca, cb := cols[a].c, cols[b].c
				if ca.sketched || cb.sketched {
					// Handled by pairCountsSketchSection (the pair ring
					// or its exact scan fallback).
					continue
				}
				if (len(ca.dict)-1)*(len(cb.dict)-1) > maxPairCross {
					vs.pairScanInto(v, ov, si, cols[a].name, ca, cols[b].name, cb, out)
					continue
				}
				for ida := 1; ida < len(ca.bits); ida++ {
					bmA := ca.bits[ida]
					na := bmA.effLen(fw)
					if na > n {
						na = n
					}
					any := uint64(0)
					words += na
					for w := 0; w < na; w++ {
						tmp[w] = vs.window.word(w, fw) & bmA.word(w, fw)
						any |= tmp[w]
					}
					if any == 0 {
						continue
					}
					for idb := 1; idb < len(cb.bits); idb++ {
						bmB := cb.bits[idb]
						nb := bmB.effLen(fw)
						if nb > na {
							nb = na
						}
						total, drift := 0, 0
						words += nb
						for w := 0; w < nb; w++ {
							acc := tmp[w] & bmB.word(w, fw)
							if acc == 0 {
								continue
							}
							total += bits.OnesCount64(acc)
							var dw uint64
							if ovWords != nil {
								dw = ovWords[w]
							} else {
								dw = vs.driftBM.word(w, fw)
							}
							drift += bits.OnesCount64(acc & dw)
						}
						if total == 0 {
							continue
						}
						k := PairKey{
							AttrA: cols[a].name, ValA: ca.dict[ida],
							AttrB: cols[b].name, ValB: cb.dict[idb],
						}
						cr := out[k]
						cr.Total += total
						cr.Drift += drift
						out[k] = cr
					}
				}
			}
		}
	}
	v.wordsVisited.Add(int64(words))
	return out
}

// pairScanInto is pairCountsBitset's per-attribute-pair row-scan
// fallback for value cross products too large to enumerate.
func (vs *viewShard) pairScanInto(v *View, ov *Overlay, si int, aName string, ca viewCol, bName string, cb viewCol, out map[PairKey]CountResult) {
	v.rowsVisited.Add(int64(vs.rows))
	for i := 0; i < vs.rows; i++ {
		if !vs.inWindow(v, i) {
			continue
		}
		ida := ca.ids[i]
		if ida == 0 {
			continue
		}
		idb := cb.ids[i]
		if idb == 0 {
			continue
		}
		k := PairKey{AttrA: aName, ValA: ca.dict[ida], AttrB: bName, ValB: cb.dict[idb]}
		cr := out[k]
		cr.Total++
		if ov.driftAt(vs, si, i) {
			cr.Drift++
		}
		out[k] = cr
	}
}
