package sketch

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
)

// estimateOracle is the per-key Count-Min estimate loop that hashes the
// key inline: the reference the Probe/EstimateProbe split must match.
func (c *CountMin) estimateOracle(key string) Estimate {
	h1, h2 := c.hashPair(key)
	w := uint64(c.width)
	est := Estimate{Total: math.MaxUint32, Drift: math.MaxUint32}
	for i := uint32(0); i < c.depth; i++ {
		idx := (h1 + uint64(i)*h2) % w
		cell := (uint64(i)*w + idx) * 2
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

// mapSpaceSaving is the Space-Saving summary with the heap holding the
// entries themselves and a key->heap-index map rewritten on every swap:
// the reference the slot-indexed heap must match offer for offer.
type mapSpaceSaving[K ordered] struct {
	cap  int
	heap []ssEntry[K]
	pos  map[K]int
}

func newMapSpaceSaving[K ordered](capacity int) *mapSpaceSaving[K] {
	if capacity < 1 {
		capacity = 1
	}
	return &mapSpaceSaving[K]{cap: capacity, pos: make(map[K]int, capacity)}
}

func (s *mapSpaceSaving[K]) Offer(key K, n uint64) {
	if n == 0 {
		return
	}
	if i, ok := s.pos[key]; ok {
		s.heap[i].count += n
		s.siftDown(i)
		return
	}
	if len(s.heap) < s.cap {
		s.heap = append(s.heap, ssEntry[K]{key: key, count: n})
		s.pos[key] = len(s.heap) - 1
		s.siftUp(len(s.heap) - 1)
		return
	}
	min := &s.heap[0]
	delete(s.pos, min.key)
	s.pos[key] = 0
	min.err = min.count
	min.key = key
	min.count += n
	s.siftDown(0)
}

func (s *mapSpaceSaving[K]) Items() []HeavyHitter[K] {
	out := make([]HeavyHitter[K], len(s.heap))
	for i, e := range s.heap {
		out[i] = HeavyHitter[K]{Key: e.key, Count: e.count, Err: e.err}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

func (s *mapSpaceSaving[K]) less(i, j int) bool {
	if s.heap[i].count != s.heap[j].count {
		return s.heap[i].count < s.heap[j].count
	}
	return s.heap[i].key < s.heap[j].key
}

func (s *mapSpaceSaving[K]) swap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.pos[s.heap[i].key] = i
	s.pos[s.heap[j].key] = j
}

func (s *mapSpaceSaving[K]) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !s.less(i, p) {
			return
		}
		s.swap(i, p)
		i = p
	}
}

func (s *mapSpaceSaving[K]) siftDown(i int) {
	n := len(s.heap)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && s.less(l, m) {
			m = l
		}
		if r < n && s.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		s.swap(i, m)
		i = m
	}
}

// TestCountMinProbeMatchesOracle pins that hashing once and probing a
// ring of same-geometry sketches gives every sketch's inline-hashed
// estimate exactly.
func TestCountMinProbeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, geom := range []struct{ width, depth int }{{2, 1}, {97, 3}, {1024, 4}, {8192, 8}} {
		ring := make([]*CountMin, 4)
		for i := range ring {
			ring[i] = NewCountMin(geom.width, geom.depth, 17)
			for j := 0; j < 3000; j++ {
				ring[i].Add(fmt.Sprintf("k%d", rng.Intn(900)), rng.Intn(3) == 0)
			}
		}
		for j := 0; j < 1200; j++ {
			key := fmt.Sprintf("k%d", j)
			p := ring[0].Probe(key)
			for i, cm := range ring {
				if got, want := cm.EstimateProbe(&p), cm.estimateOracle(key); got != want {
					t.Fatalf("geom %+v sketch %d key %q: probe %+v, oracle %+v", geom, i, key, got, want)
				}
				if got, want := cm.Estimate(key), cm.estimateOracle(key); got != want {
					t.Fatalf("geom %+v sketch %d key %q: Estimate %+v, oracle %+v", geom, i, key, got, want)
				}
			}
		}
	}
}

// checkSpaceSavingAgainstOracle feeds one offer stream to both summaries,
// comparing Items after every offer (ties and evictions included).
func checkSpaceSavingAgainstOracle(t *testing.T, capacity int, keys []string, ns []uint64) {
	t.Helper()
	got, want := NewSpaceSaving[string](capacity), newMapSpaceSaving[string](capacity)
	for i, k := range keys {
		got.Offer(k, ns[i])
		want.Offer(k, ns[i])
		if g, w := got.Items(), want.Items(); !reflect.DeepEqual(g, w) {
			t.Fatalf("cap %d after offer %d (%q, %d): Items %v, oracle %v", capacity, i, k, ns[i], g, w)
		}
	}
	if got.Len() != len(want.heap) {
		t.Fatalf("cap %d: Len %d, oracle %d", capacity, got.Len(), len(want.heap))
	}
}

// TestSpaceSavingSlotHeapMatchesOracle is the slot-indexed heap's
// differential test: small alphabets and counts of 1–3 produce many
// count ties, capacities below the alphabet force evictions, and Items
// must equal the map-indexed oracle exactly after every offer.
func TestSpaceSavingSlotHeapMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		capacity := 1 + rng.Intn(24)
		alphabet := 1 + rng.Intn(4*capacity)
		n := 200 + rng.Intn(400)
		keys, ns := make([]string, n), make([]uint64, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("k%d", rng.Intn(alphabet))
			ns[i] = uint64(1 + rng.Intn(3))
		}
		checkSpaceSavingAgainstOracle(t, capacity, keys, ns)
	}
}

// FuzzSpaceSavingDifferential drives fuzzer-chosen offer streams through
// the slot-indexed heap and the map-indexed oracle. The first byte picks
// the capacity; each following byte is one offer, its low five bits the
// key and its high three bits the count (0 offers are no-ops in both).
func FuzzSpaceSavingDifferential(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 4, 1, 2, 5, 6, 7})
	f.Add([]byte{1, 0x21, 0x22, 0x21, 0x41, 0x23})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := 1 + int(data[0]%32)
		keys, ns := make([]string, 0, len(data)), make([]uint64, 0, len(data))
		for _, b := range data[1:] {
			keys = append(keys, fmt.Sprintf("k%02d", b&31))
			ns = append(ns, uint64(b>>5))
		}
		checkSpaceSavingAgainstOracle(t, capacity, keys, ns)
	})
}

// BenchmarkSpaceSavingOffer feeds a full 2048-entry summary (the pair
// ring's tracker size) a long-tail stream: a few hundred hot keys that
// stay resident amid a tail of cold keys that evict the minimum.
func BenchmarkSpaceSavingOffer(b *testing.B) {
	const capacity = 2048
	rng := rand.New(rand.NewSource(1))
	stream := make([]string, 1<<16)
	for i := range stream {
		// Keys shaped like the drift log's pair-ring keys.
		if rng.Intn(10) < 4 {
			stream[i] = fmt.Sprintf("app_version\x001.%d\x00weather\x00w%d", rng.Intn(64), rng.Intn(4))
		} else {
			stream[i] = fmt.Sprintf("app_version\x001.%d\x00device_id\x00dev-%d", rng.Intn(1<<14), rng.Intn(1<<14))
		}
	}
	ss := NewSpaceSaving[string](capacity)
	for _, k := range stream {
		ss.Offer(k, 1)
	}
	if ss.Len() != capacity {
		b.Fatalf("summary not full: %d of %d", ss.Len(), capacity)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ss.Offer(stream[i&(len(stream)-1)], 1)
	}
}
