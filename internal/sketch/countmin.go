// Package sketch provides bounded-memory streaming summaries used by the
// drift-log's tiered index for high-cardinality attributes: a Count-Min
// sketch for approximate support counting and a Space-Saving tracker for
// heavy-hitter enumeration.
//
// Both structures use deterministic seeded hashing (splitmix64-style
// finalizers over a caller-supplied seed) so that results are byte-identical
// across runs, across worker-pool widths, and across insertion orders of
// commuting operations. The Count-Min sketch uses plain (non-conservative)
// increments so adds commute: feeding the same multiset of keys in any order
// yields the same counter array, which is what makes sharded ingest and
// tier-up replay deterministic.
package sketch

import (
	"math"
	"sync/atomic"
)

// CountMin is a Count-Min sketch over string keys that tracks two counters
// per cell: a total-occurrence count and a drifted-occurrence count. The
// paired layout means a single Estimate returns both the support and the
// drift support for a key with one pass over the rows.
//
// Counters are uint32 and incremented atomically, so concurrent Add calls
// from different shards are safe without external locking. A single cell
// saturates the uint32 at ~4.2 billion increments; the drift log caps well
// below that (the store itself would exhaust memory first).
//
// Estimates are one-sided: Estimate(key) >= true count, always, with
// Pr[Estimate - true > εN] <= e^-depth where ε = e/width and N is the total
// number of increments.
type CountMin struct {
	width uint32
	depth uint32
	seed  uint64
	// rows holds depth rows of width cells; each cell is a (total, drift)
	// pair stored as two consecutive uint32s.
	rows []uint32
}

// Estimate is a one-sided approximate count returned by CountMin.Estimate:
// Total >= true total and Drift >= true drift for the queried key.
type Estimate struct {
	Total uint32
	Drift uint32
}

// NewCountMin allocates a sketch with the given geometry. Width is rounded
// up to at least 2 and depth clamped to [1, 8]. The seed fixes the hash
// family; two sketches built with the same (width, depth, seed) are
// mergeable and order-independent.
func NewCountMin(width, depth int, seed uint64) *CountMin {
	if width < 2 {
		width = 2
	}
	if depth < 1 {
		depth = 1
	}
	if depth > 8 {
		depth = 8
	}
	return &CountMin{
		width: uint32(width),
		depth: uint32(depth),
		seed:  seed,
		rows:  make([]uint32, 2*width*depth),
	}
}

// Width returns the per-row cell count.
func (c *CountMin) Width() int { return int(c.width) }

// Depth returns the number of hash rows.
func (c *CountMin) Depth() int { return int(c.depth) }

// Bytes returns the heap footprint of the counter array.
func (c *CountMin) Bytes() int { return len(c.rows) * 4 }

// hashPair derives the two base hashes for Kirsch-Mitzenmacher double
// hashing: row i probes index (h1 + i*h2) mod width. h2 is forced odd so
// the probe sequence cycles through all residues for power-of-two widths
// and never degenerates to a constant.
func (c *CountMin) hashPair(key string) (uint64, uint64) {
	h := c.seed
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 0x100000001b3 // FNV-1a style mix with a 64-bit prime
	}
	h1 := mix64(h)
	h2 := mix64(h ^ 0x9e3779b97f4a7c15)
	return h1, h2 | 1
}

// Add records one occurrence of key; drifted additionally bumps the drift
// counter. Safe for concurrent use.
func (c *CountMin) Add(key string, drifted bool) {
	c.AddN(key, 1, drifted)
}

// AddN records n occurrences of key in one shot (used by tier-up replay
// and merge). Safe for concurrent use.
func (c *CountMin) AddN(key string, n uint32, drifted bool) {
	if n == 0 {
		return
	}
	p := c.Probe(key)
	for i := uint32(0); i < c.depth; i++ {
		cell := c.cell(&p, i)
		atomic.AddUint32(&c.rows[cell], n)
		if drifted {
			atomic.AddUint32(&c.rows[cell+1], n)
		}
	}
}

// Probe is a key's hashed position in every hash row. It depends only on
// the key and the (width, depth, seed) geometry, so one Probe is valid
// for every sketch built with that geometry: a query over a ring of such
// sketches hashes each key once rather than once per sketch.
type Probe struct {
	cols [8]uint32 // column per hash row; the first depth are used
}

// Probe hashes key for this sketch's geometry.
func (c *CountMin) Probe(key string) Probe {
	h1, h2 := c.hashPair(key)
	w := uint64(c.width)
	var p Probe
	for i := uint32(0); i < c.depth; i++ {
		p.cols[i] = uint32((h1 + uint64(i)*h2) % w)
	}
	return p
}

// cell is the counter-array offset of p's (total, drift) pair in row i.
func (c *CountMin) cell(p *Probe, i uint32) uint64 {
	return (uint64(i)*uint64(c.width) + uint64(p.cols[i])) * 2
}

// Estimate returns the one-sided (Total, Drift) estimate for key: the
// minimum over the depth probed cells, with Drift clamped to Total (the
// clamp preserves the one-sided guarantee because true drift <= true
// total <= estimated total).
func (c *CountMin) Estimate(key string) Estimate {
	p := c.Probe(key)
	return c.EstimateProbe(&p)
}

// EstimateProbe is Estimate for an already hashed key. p must come from
// a sketch with this sketch's width, depth and seed.
func (c *CountMin) EstimateProbe(p *Probe) Estimate {
	est := Estimate{Total: math.MaxUint32, Drift: math.MaxUint32}
	for i := uint32(0); i < c.depth; i++ {
		cell := c.cell(p, i)
		t := atomic.LoadUint32(&c.rows[cell])
		d := atomic.LoadUint32(&c.rows[cell+1])
		if t < est.Total {
			est.Total = t
		}
		if d < est.Drift {
			est.Drift = d
		}
	}
	if est.Drift > est.Total {
		est.Drift = est.Total
	}
	return est
}

// Merge adds other's counters into c. Both sketches must share geometry
// and seed; Merge panics otherwise. Because increments are plain adds,
// Merge(a, b) is equivalent to replaying both input streams into one
// sketch in any order.
func (c *CountMin) Merge(other *CountMin) {
	if other == nil {
		return
	}
	if c.width != other.width || c.depth != other.depth || c.seed != other.seed {
		panic("sketch: CountMin.Merge geometry/seed mismatch")
	}
	for i := range c.rows {
		v := atomic.LoadUint32(&other.rows[i])
		if v != 0 {
			atomic.AddUint32(&c.rows[i], v)
		}
	}
}

// ErrBound returns the analytic additive error bound for a sketch of this
// width after n total increments: with probability >= 1 - e^-depth,
// Estimate - true <= ErrBound(n). This is the ceil(e*n/width) bound for
// the standard Count-Min analysis.
func (c *CountMin) ErrBound(n uint64) uint64 {
	return ErrBound(int(c.width), n)
}

// ErrBound is the analytic Count-Min additive error ceil(e*n/width) for a
// sketch of the given width after n increments.
func ErrBound(width int, n uint64) uint64 {
	if width < 2 {
		width = 2
	}
	return uint64(math.Ceil(math.E * float64(n) / float64(width)))
}

// mix64 is the splitmix64 finalizer: a cheap bijective mixer whose output
// bits are all well distributed functions of the input.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
