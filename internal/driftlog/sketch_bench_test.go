package driftlog

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// Sketch-vs-exact counting benchmarks. The exact variant pins the
// bitset index (sketching disabled via an unreachable threshold); the
// sketch variant lets high-cardinality attributes tier up. Each
// benchmark reports index-bytes — the live size of the structure that
// answers the count — so BENCH_sketch.json captures the memory trade
// alongside the latency one.

var sketchBenchStores sync.Map // "rows/card/variant" → *Store

func sketchBenchStore(tb testing.TB, rows, card int, sketch bool) *Store {
	key := fmt.Sprintf("%d/%d/%v", rows, card, sketch)
	if s, ok := sketchBenchStores.Load(key); ok {
		return s.(*Store)
	}
	cfg := SketchConfig{}
	if !sketch {
		cfg.Threshold = 1 << 30
	}
	s := NewStoreWithSketch(cfg)
	r := rand.New(rand.NewSource(42))
	base := time.Unix(0, 0).UTC()
	span := time.Hour
	weathers := [3]string{"clear-day", "rain", "snow"}
	batch := make([]Entry, 0, 1<<14)
	hot := 16
	if hot > card {
		hot = card
	}
	for i := 0; i < rows; i++ {
		w := weathers[r.Intn(3)]
		v := r.Intn(card)
		if r.Float64() < 0.5 {
			v = r.Intn(hot)
		}
		p := 0.02
		if w == "snow" {
			p = 0.5
		}
		if v == 0 {
			p = 0.7
		}
		batch = append(batch, Entry{
			Time:     base.Add(span * time.Duration(i) / time.Duration(rows)),
			Drift:    r.Float64() < p,
			SampleID: -1,
			Attrs: map[string]string{
				AttrWeather:   w,
				"app_version": "v" + fmt.Sprint(v),
			},
		})
		if len(batch) == cap(batch) {
			s.AppendBatch(batch)
			batch = batch[:0]
		}
	}
	s.AppendBatch(batch)
	sketchBenchStores.Store(key, s)
	return s
}

// indexBytes is the resident size of whichever structure answers
// value-membership queries: exact bitset words or sketch bytes.
func indexBytes(s *Store) float64 {
	st := s.Stats()
	return float64(st.IndexWords*8) + float64(st.SketchBytes)
}

var sketchBenchCases = []struct {
	name       string
	rows, card int
	variants   []bool // false = exact, true = sketch
}{
	{"100kx100", 100_000, 100, []bool{false}},
	{"1Mx100", 1_000_000, 100, []bool{false}},
	{"100kx100k", 100_000, 100_000, []bool{false, true}},
	{"1Mx100k", 1_000_000, 100_000, []bool{true}},
}

func variantName(sketch bool) string {
	if sketch {
		return "sketch"
	}
	return "exact"
}

// BenchmarkSketchCount measures one conditioned support count over a
// bucket-aligned 30-minute sub-window (the shape the sliding-window
// miner issues).
func BenchmarkSketchCount(b *testing.B) {
	base := time.Unix(0, 0).UTC()
	for _, c := range sketchBenchCases {
		for _, sketch := range c.variants {
			b.Run(variantName(sketch)+"/"+c.name, func(b *testing.B) {
				s := sketchBenchStore(b, c.rows, c.card, sketch)
				v := s.Window(base.Add(10*time.Minute), base.Add(40*time.Minute))
				conds := []Cond{{Attr: "app_version", Value: "v0"}}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := v.Count(conds, nil); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(indexBytes(s), "index-bytes")
			})
		}
	}
}

// BenchmarkSketchValueCounts measures the per-value group-by that
// seeds mining's level-1 candidates: the exact tier walks every
// distinct value, the sketch tier only its heavy-hitter candidates.
func BenchmarkSketchValueCounts(b *testing.B) {
	for _, c := range sketchBenchCases {
		for _, sketch := range c.variants {
			b.Run(variantName(sketch)+"/"+c.name, func(b *testing.B) {
				s := sketchBenchStore(b, c.rows, c.card, sketch)
				v := s.All()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if got := v.AttrValueCounts(nil); len(got) == 0 {
						b.Fatal("empty group-by")
					}
				}
				b.ReportMetric(indexBytes(s), "index-bytes")
			})
		}
	}
}

// BenchmarkSketchPairCounts measures the sketch tier's share of pair
// mining on a cumulative window: 100k rows over 10 hours (60 covered
// 10-minute buckets) with 16k app versions, so the 2048-entry pair
// heavy-hitter ring is full and every candidate is estimated in every
// bucket.
func BenchmarkSketchPairCounts(b *testing.B) {
	s := NewStore()
	r := rand.New(rand.NewSource(7))
	base := time.Unix(0, 0).UTC()
	const rows, span = 100_000, 10 * time.Hour
	weathers := [4]string{"clear-day", "rain", "snow", "fog"}
	entries := make([]Entry, rows)
	for i := range entries {
		v := r.Intn(16_000)
		if r.Float64() < 0.6 {
			v = r.Intn(12)
		}
		entries[i] = Entry{
			Time:     base.Add(span * time.Duration(i) / rows),
			Drift:    r.Float64() < 0.05,
			SampleID: -1,
			Attrs: map[string]string{
				AttrWeather:   weathers[r.Intn(4)],
				AttrLocation:  fmt.Sprintf("site_%d", r.Intn(8)),
				"app_version": fmt.Sprintf("v%d", v),
			},
		}
	}
	s.AppendBatch(entries)
	if n := s.sk.pairRing().hh.Len(); n != 2048 {
		b.Fatalf("pair ring holds %d candidates, want a full 2048", n)
	}
	v := s.Window(base, base.Add(span))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := v.PairCounts(nil, nil); len(got) == 0 {
			b.Fatal("empty pair counts")
		}
	}
	b.ReportMetric(float64(v.sketchWork.probes.Load())/float64(b.N), "probes/op")
}
