package adapt

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"
	"time"

	"nazar/internal/driftlog"
	"nazar/internal/fim"
	"nazar/internal/nn"
	"nazar/internal/rca"
	"nazar/internal/tensor"
)

// The adaptation goldens pin the exact bits of the BN versions the
// adaptation loop produces, and of the supervised base model it starts
// from. Any change to forward, backward or optimizer arithmetic that is
// meant to be a pure speed-up must leave them untouched. Set
// UPDATE_GOLDEN=1 to regenerate only after a deliberate numerics change.

const (
	goldenDim     = 64
	goldenClasses = 24
)

// goldenSetup builds the seeded base model (trained with nn.Fit) and the
// drifted sample pools every adaptation golden starts from.
func goldenSetup() (base *nn.Network, pools []*tensor.Matrix) {
	rng := tensor.NewRand(0x601D, 12)
	means := tensor.New(goldenClasses, goldenDim)
	means.RandNormal(rng, 0, 1)
	sample := func(rows int) (*tensor.Matrix, []int) {
		x := tensor.New(rows, goldenDim)
		y := make([]int, rows)
		for i := range y {
			y[i] = i % goldenClasses
			mr, xr := means.Row(y[i]), x.Row(i)
			for j := range xr {
				xr[j] = mr[j] + 0.6*rng.NormFloat64()
			}
		}
		return x, y
	}
	trainX, trainY := sample(16 * goldenClasses)
	base = nn.NewClassifier(nn.ArchResNet50, goldenDim, goldenClasses, rng)
	nn.Fit(base, trainX, trainY, nn.TrainConfig{Epochs: 4, BatchSize: 32, Rng: rng})

	// Three drifts: per-feature affine shifts of growing strength.
	for k := 1; k <= 3; k++ {
		x, _ := sample(256)
		scale, shift := 1+0.3*float64(k), 0.4*float64(k)
		for i := 0; i < x.Rows; i++ {
			for j, v := range x.Row(i) {
				x.Row(i)[j] = scale*v + shift*float64(j%5-2)
			}
		}
		pools = append(pools, x)
	}
	return base, pools
}

func goldenCause(weather string) rca.Cause {
	return rca.Cause{
		Items:   fim.NewItemset(driftlog.Cond{Attr: driftlog.AttrWeather, Value: weather}),
		Metrics: fim.Metrics{RiskRatio: 2},
	}
}

// goldenVersion is one fixture entry: a BN version and its identity.
type goldenVersion struct {
	ID       string
	Snapshot *nn.BNSnapshot
}

// floatBits appends the little-endian IEEE-754 bits of vs to buf.
func floatBits(buf []byte, vs ...[]float64) []byte {
	for _, v := range vs {
		for _, f := range v {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
		}
	}
	return buf
}

// versionBits is the canonical byte form of a fixture: every ID and
// every float's bits, in order. The fixtures are stored gob-encoded, but
// gob bytes cannot be compared directly: gob numbers types process-wide
// in first-use order, so one snapshot encodes differently depending on
// what the process encoded before it.
func versionBits(vs []goldenVersion) []byte {
	var buf []byte
	for _, v := range vs {
		buf = append(buf, v.ID...)
		buf = append(buf, 0)
		for _, l := range v.Snapshot.Layers {
			buf = floatBits(buf, l.Gamma, l.Beta, l.RunMean, l.RunVar)
		}
	}
	return buf
}

// checkGolden compares got with the gob fixture testdata/name bit for
// bit, rewriting the fixture first when UPDATE_GOLDEN is set.
func checkGolden(t *testing.T, name string, got []goldenVersion) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(got); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden %s regenerated", name)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenVersion
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&want); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !bytes.Equal(versionBits(got), versionBits(want)) {
		t.Fatalf("%s: BN versions diverge from the golden fixture", name)
	}
}

// netDigest hashes the bits of every parameter and BN statistic of net.
func netDigest(net *nn.Network) string {
	snap := nn.CaptureNet(net)
	buf := floatBits(nil, snap.Params...)
	buf = append(buf, versionBits([]goldenVersion{{Snapshot: &snap.BN}})...)
	return fmt.Sprintf("%x\n", sha256.Sum256(buf))
}

// TestGoldenAdaptation pins the nn.Fit base model, one TENT run, one
// MEMO run and one ByCause run at pool widths 1 and 8 against committed
// fixtures.
func TestGoldenAdaptation(t *testing.T) {
	defer tensor.SetMaxWorkers(0)
	base, pools := goldenSetup()

	// The trained base model (every weight plus BN state) is pinned by
	// digest: its ~290 KB of floats add nothing a hash does not.
	fitPath := filepath.Join("testdata", "golden_fit_net.sha256")
	digest := netDigest(base)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fitPath, []byte(digest), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(fitPath)
	if err != nil {
		t.Fatal(err)
	}
	if digest != string(want) {
		t.Fatalf("nn.Fit result digest %q, golden %q", digest, want)
	}

	tent := func() []goldenVersion {
		adapted, err := Adapt(base, pools[0], Config{
			Method: TENT, MinSteps: 30, EntropyFilter: 0.9, Rng: tensor.NewRand(1, 2),
		})
		if err != nil {
			t.Fatal(err)
		}
		return []goldenVersion{{ID: "tent", Snapshot: nn.CaptureBN(adapted)}}
	}
	memo := func() []goldenVersion {
		adapted, err := Adapt(base, pools[1], Config{
			Method: MEMO, Epochs: 1, BatchSize: 16, MaxBatchesPerEpoch: 4, Augmentations: 4,
			Augment: func(x []float64, rng *rand.Rand) []float64 {
				out := make([]float64, len(x))
				for i, v := range x {
					out[i] = v + 0.2*rng.NormFloat64()
				}
				return out
			},
			Rng: tensor.NewRand(3, 4),
		})
		if err != nil {
			t.Fatal(err)
		}
		return []goldenVersion{{ID: "memo", Snapshot: nn.CaptureBN(adapted)}}
	}
	byCause := func() []goldenVersion {
		causes := []rca.Cause{goldenCause("fog"), goldenCause("snow"), goldenCause("rain")}
		source := func(c rca.Cause) *tensor.Matrix {
			for i, cc := range causes {
				if cc.Key() == c.Key() {
					return pools[i]
				}
			}
			return nil
		}
		now := time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC)
		vs, err := ByCause(base, causes, source, 2,
			Config{Rng: tensor.NewRand(5, 6), MinSteps: 12, EntropyFilter: 0.9}, now)
		if err != nil {
			t.Fatal(err)
		}
		var out []goldenVersion
		for _, v := range vs {
			out = append(out, goldenVersion{ID: v.ID, Snapshot: v.Snapshot})
		}
		return out
	}

	for _, width := range []int{1, 8} {
		tensor.SetMaxWorkers(width)
		t.Run(fmt.Sprintf("width%d", width), func(t *testing.T) {
			checkGolden(t, "golden_tent_bn.gob", tent())
			checkGolden(t, "golden_memo_bn.gob", memo())
			checkGolden(t, "golden_bycause_bn.gob", byCause())
		})
	}
}
