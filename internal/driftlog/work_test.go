package driftlog

import (
	"fmt"
	"testing"
	"time"
)

// workStore appends n rows cycling through four weathers.
func workStore(n int) *Store {
	s := NewStore()
	base := time.Date(2020, 1, 15, 0, 0, 0, 0, time.UTC)
	weathers := []string{"clear-day", "rain", "snow", "fog"}
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{
			Time:     base.Add(time.Duration(i) * time.Second),
			Drift:    i%3 == 0,
			SampleID: -1,
			Attrs: map[string]string{
				AttrWeather:  weathers[i%len(weathers)],
				AttrLocation: fmt.Sprintf("city_%d", i%5),
			},
		}
	}
	s.AppendBatch(entries)
	return s
}

// TestViewWork pins the deterministic work counter Fig. 9d is fitted on:
// an indexed Count visits bitmap words, a row scan visits rows, repeats
// cost the same, and doubling the log doubles the work.
func TestViewWork(t *testing.T) {
	conds := []Cond{{AttrWeather, "snow"}}
	measure := func(rows int, scan bool) Work {
		v := workStore(rows).All()
		var err error
		if scan {
			_, err = v.CountScan(conds, nil)
		} else {
			_, err = v.Count(conds, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		return v.Work()
	}

	idx := measure(64*1024, false)
	// At most one word per 64 rows per condition (plus a partial tail
	// word per shard), never a row.
	if idx.Rows != 0 || idx.Words == 0 || idx.Words > 1024+numShards {
		t.Fatalf("indexed count work %+v, want at most ~1024 words and no rows", idx)
	}
	// A scan visits every row of each shard the value appears in: the
	// rows the indexed path covered 64 to a word.
	if scan := measure(64*1024, true); scan.Words != 0 || scan.Rows != 64*idx.Words {
		t.Fatalf("scan count work %+v, want %d rows and no words", scan, 64*idx.Words)
	}
	if twice := measure(2*64*1024, false); twice.Words < 2*idx.Words-2*numShards || twice.Words > 2*idx.Words+2*numShards {
		t.Fatalf("doubling rows: %d words, want ~%d", twice.Words, 2*idx.Words)
	}

	v := workStore(4096).All()
	for i := 0; i < 2; i++ {
		before := v.Work()
		ov := v.DriftOverlay()
		if _, err := v.ClearDrift(conds, ov); err != nil {
			t.Fatal(err)
		}
		v.AttrValueCounts(ov)
		v.PairCounts(ov, nil)
		ov.Release()
		after := v.Work()
		if i == 0 {
			idx = Work{Words: after.Words - before.Words, Rows: after.Rows - before.Rows}
			if idx.Words == 0 {
				t.Fatal("clear, group-by and pair counts recorded no work")
			}
			continue
		}
		if d := (Work{Words: after.Words - before.Words, Rows: after.Rows - before.Rows}); d != idx {
			t.Fatalf("repeated queries did %+v work, first pass %+v", d, idx)
		}
	}
}
