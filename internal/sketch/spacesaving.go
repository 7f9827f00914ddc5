package sketch

import (
	"sort"
	"sync"
	"unsafe"
)

// SpaceSaving is the Metwally et al. Space-Saving heavy-hitter summary over
// keys of any ordered-comparable kind (ordering is required only to break
// count ties deterministically). With capacity k it guarantees that every
// key whose true frequency exceeds N/k is present in the summary after N
// offers, and that each reported count overestimates the true count by at
// most the count of the minimum entry at eviction time.
//
// Entries live in stable slots; a binary min-heap of slot ids ordered by
// (count asc, key asc) finds the eviction victim, so Offer is O(log k) even
// when the summary is full — a linear min-scan would cost O(k) per
// eviction, which at k=2048 and millions of rows dominates ingest. Heap
// swaps move int32 slot ids and update the slot->position index; the
// key->slot map is written only when a key enters or leaves the summary,
// never per swap. The (count, key) total order makes eviction
// deterministic: the same offer sequence always evicts the same keys,
// independent of map iteration order.
//
// SpaceSaving is guarded by an internal mutex and safe for concurrent use.
type SpaceSaving[K ordered] struct {
	cap     int
	mu      sync.Mutex
	entries []ssEntry[K] // slot -> entry; slots never move
	heap    []int32      // heap position -> slot
	at      []int32      // slot -> heap position
	slot    map[K]int32  // key -> slot
}

type ssEntry[K ordered] struct {
	key   K
	count uint64
	err   uint64 // overestimate bound inherited from the evicted minimum
}

// ordered is the constraint for Space-Saving keys: comparable with a total
// order usable for deterministic tie-breaking.
type ordered interface {
	~string | ~int | ~int64 | ~uint64 | ~uint32
}

// HeavyHitter is one entry reported by Items: Count overestimates the true
// frequency by at most Err.
type HeavyHitter[K ordered] struct {
	Key   K
	Count uint64
	Err   uint64
}

// NewSpaceSaving returns a tracker with the given capacity (clamped to at
// least 1).
func NewSpaceSaving[K ordered](capacity int) *SpaceSaving[K] {
	if capacity < 1 {
		capacity = 1
	}
	return &SpaceSaving[K]{
		cap:  capacity,
		slot: make(map[K]int32, capacity),
	}
}

// Cap returns the configured capacity.
func (s *SpaceSaving[K]) Cap() int { return s.cap }

// Len returns the number of tracked keys.
func (s *SpaceSaving[K]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Offer records n occurrences of key.
func (s *SpaceSaving[K]) Offer(key K, n uint64) {
	if n == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if sl, ok := s.slot[key]; ok {
		s.entries[sl].count += n
		s.siftDown(int(s.at[sl]))
		return
	}
	if len(s.entries) < s.cap {
		sl := int32(len(s.entries))
		s.entries = append(s.entries, ssEntry[K]{key: key, count: n})
		s.heap = append(s.heap, sl)
		s.at = append(s.at, sl)
		s.slot[key] = sl
		s.siftUp(int(sl))
		return
	}
	// Full: replace the minimum entry, inheriting its count as the
	// overestimate bound for the newcomer.
	sl := s.heap[0]
	min := &s.entries[sl]
	delete(s.slot, min.key)
	s.slot[key] = sl
	min.err = min.count
	min.key = key
	min.count += n
	s.siftDown(0)
}

// Items returns the tracked entries sorted by (count desc, key asc) — the
// deterministic candidate order the mining layer enumerates.
func (s *SpaceSaving[K]) Items() []HeavyHitter[K] {
	s.mu.Lock()
	out := make([]HeavyHitter[K], len(s.entries))
	for i, e := range s.entries {
		out[i] = HeavyHitter[K]{Key: e.key, Count: e.count, Err: e.err}
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Bytes returns an estimate of the heap footprint at capacity: the entry,
// its two int32 heap indexes and its key->slot map entry; string keys
// additionally count their byte length.
func (s *SpaceSaving[K]) Bytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var e ssEntry[K]
	perSlot := int(unsafe.Sizeof(e)) + 2*4 + int(unsafe.Sizeof(e.key)) + 4
	n := s.cap * perSlot
	for i := range s.entries {
		if k, ok := any(s.entries[i].key).(string); ok {
			n += len(k)
		}
	}
	return n
}

// less orders heap positions by their entries' (count asc, key asc): a
// strict total order so the eviction victim is unique.
func (s *SpaceSaving[K]) less(i, j int) bool {
	a, b := &s.entries[s.heap[i]], &s.entries[s.heap[j]]
	if a.count != b.count {
		return a.count < b.count
	}
	return a.key < b.key
}

func (s *SpaceSaving[K]) swap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.at[s.heap[i]] = int32(i)
	s.at[s.heap[j]] = int32(j)
}

func (s *SpaceSaving[K]) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !s.less(i, p) {
			return
		}
		s.swap(i, p)
		i = p
	}
}

func (s *SpaceSaving[K]) siftDown(i int) {
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
