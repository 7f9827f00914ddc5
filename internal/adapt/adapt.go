// Package adapt implements Nazar's self-supervised model adaptation
// (§3.4): TENT entropy minimization (Eq. 2) and MEMO marginal-entropy
// minimization (Eq. 3), both restricted to batch-norm parameters, plus
// the by-cause adaptation manager that produces one deployable "BN
// version" per root cause and the adapt-all baseline the paper compares
// against.
package adapt

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"time"

	"nazar/internal/nn"
	"nazar/internal/rca"
	"nazar/internal/tensor"
)

// Method selects the self-supervised objective.
type Method string

const (
	// TENT minimizes prediction entropy over batches (the paper's
	// default — it "largely outperforms MEMO in both strategies").
	TENT Method = "tent"
	// MEMO minimizes the marginal entropy over augmented copies of
	// each input.
	MEMO Method = "memo"
)

// AugmentFunc produces a randomly augmented copy of an input (used by
// MEMO; imagesim.World.Augment satisfies it).
type AugmentFunc func(x []float64, rng *rand.Rand) []float64

// Config controls one adaptation run.
type Config struct {
	Method Method
	// LR is the Adam learning rate over the BN affine parameters.
	LR float64
	// Epochs is the number of passes over the sample pool.
	Epochs int
	// BatchSize is the adaptation batch size (TENT needs > 1 so the
	// entropy objective cannot collapse per-sample).
	BatchSize int
	// MaxBatchesPerEpoch caps work per epoch (0 = no cap).
	MaxBatchesPerEpoch int
	// MinSteps extends the number of epochs so at least this many
	// optimizer steps run even when the sample pool is small (a window
	// may only collect a few dozen uploads per cause).
	MinSteps int
	// Augmentations is the number of MEMO copies per input.
	Augmentations int
	// Augment is required for MEMO.
	Augment AugmentFunc
	// EntropyFilter, when positive, skips samples whose prediction
	// entropy exceeds EntropyFilter·ln(C) during TENT (an EATA-style
	// reliability filter: very-high-entropy samples carry noisy
	// gradients). 0 disables filtering.
	EntropyFilter float64
	// AfterEpoch, when set, runs at the end of every adaptation epoch
	// with the in-training clone — the hook the quantized execution
	// mode uses to re-fold updated BN state into the int8 serving form
	// after each round (see AdaptQuantized). The network passed in is
	// live training state: read it, don't keep it.
	AfterEpoch func(net *nn.Network, epoch int)
	Rng        *rand.Rand
}

// DefaultConfig returns calibrated TENT defaults.
func DefaultConfig() Config {
	return Config{Method: TENT, LR: 0.005, Epochs: 3, BatchSize: 64, Augmentations: 8}
}

func (c Config) withDefaults() Config {
	if c.Method == "" {
		c.Method = TENT
	}
	if c.LR <= 0 {
		c.LR = 0.005
	}
	if c.Epochs <= 0 {
		c.Epochs = 3
	}
	if c.BatchSize <= 1 {
		c.BatchSize = 64
	}
	if c.Augmentations <= 1 {
		c.Augmentations = 8
	}
	if c.Rng == nil {
		c.Rng = tensor.NewRand(0xADA, 1)
	}
	return c
}

// Adapt clones base, freezes everything except batch-norm γ/β, runs the
// configured self-supervised objective over the unlabeled samples, and
// returns the adapted clone. The base network is never mutated.
func Adapt(base *nn.Network, samples *tensor.Matrix, cfg Config) (*nn.Network, error) {
	return AdaptContext(context.Background(), base, samples, cfg)
}

// AdaptContext is Adapt with cooperative cancellation: the context is
// checked before every optimizer step, so a cancelled window abandons the
// (minutes-long, §5.8) adaptation stage after at most one batch.
func AdaptContext(ctx context.Context, base *nn.Network, samples *tensor.Matrix, cfg Config) (*nn.Network, error) {
	cfg = cfg.withDefaults()
	if samples == nil || samples.Rows == 0 {
		return nil, fmt.Errorf("adapt: no samples to adapt on")
	}
	if cfg.Method == MEMO && cfg.Augment == nil {
		return nil, fmt.Errorf("adapt: MEMO requires an augmentation function")
	}
	net := base.Clone()
	net.FreezeExceptBN()
	opt := nn.NewAdam(cfg.LR)
	// Step buffers (batch, MEMO copies, loss gradient, filter probs) are
	// reused for the whole run; shapes only change on the final partial
	// batch.
	var run runner

	n := samples.Rows
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	epochs := cfg.Epochs
	if cfg.MinSteps > 0 {
		stepsPerEpoch := (n + cfg.BatchSize - 1) / cfg.BatchSize
		if cfg.MaxBatchesPerEpoch > 0 && stepsPerEpoch > cfg.MaxBatchesPerEpoch {
			stepsPerEpoch = cfg.MaxBatchesPerEpoch
		}
		if need := (cfg.MinSteps + stepsPerEpoch - 1) / stepsPerEpoch; need > epochs {
			epochs = need
		}
	}
	for epoch := 0; epoch < epochs; epoch++ {
		cfg.Rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		batches := 0
		for s := 0; s < n; s += cfg.BatchSize {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if cfg.MaxBatchesPerEpoch > 0 && batches >= cfg.MaxBatchesPerEpoch {
				break
			}
			e := min(s+cfg.BatchSize, n)
			if e-s < 2 && cfg.Method == TENT {
				break // a singleton TENT batch has a degenerate objective
			}
			batch := run.gatherRows(samples, idx[s:e])
			switch cfg.Method {
			case TENT:
				run.tentStep(net, opt, batch, cfg.EntropyFilter)
			case MEMO:
				// TENT-style batching (§3.4): augment every input in
				// the batch so BN statistics come from the whole
				// augmented batch, then minimize the per-input
				// marginal entropy.
				copies := run.copies.Reshape(batch.Rows*cfg.Augmentations, batch.Cols)
				for r := 0; r < batch.Rows; r++ {
					for a := 0; a < cfg.Augmentations; a++ {
						copy(copies.Row(r*cfg.Augmentations+a), cfg.Augment(batch.Row(r), cfg.Rng))
					}
				}
				net.ZeroGrads()
				logits := net.Forward(copies, nn.Adapt)
				_, dlogits := nn.GroupedMarginalEntropyInto(&run.dlogits, logits, cfg.Augmentations)
				net.BackwardParams(dlogits)
				opt.Step(net.Params())
			default:
				return nil, fmt.Errorf("adapt: unknown method %q", cfg.Method)
			}
			batches++
		}
		if cfg.AfterEpoch != nil {
			cfg.AfterEpoch(net, epoch)
		}
	}
	net.UnfreezeAll()
	return net, nil
}

// AdaptQuantized runs AdaptContext on the float side while keeping an
// int8 serving form current throughout: after the first epoch it builds
// a QuantizedNetwork from the in-training clone (calibrating activation
// scales on the adaptation samples — the drifted distribution the model
// is being adapted toward), and after every subsequent epoch it re-folds
// the updated BN γ/β into the quantized requantization epilogues. The
// packed int8 weight codes never change — TENT freezes everything except
// BN, so only the per-channel Mul/FBias epilogues move — and serving can
// stay on the returned quantized form for the whole run: it never leaves
// int8. The returned pair is bound: later BN edits to the float network
// (e.g. applying a newer BNSnapshot) propagate with qn.Refold().
func AdaptQuantized(ctx context.Context, base *nn.Network, samples *tensor.Matrix, cfg Config) (*nn.Network, *nn.QuantizedNetwork, error) {
	var qn *nn.QuantizedNetwork
	var qerr error
	inner := cfg.AfterEpoch
	cfg.AfterEpoch = func(net *nn.Network, epoch int) {
		if qerr == nil {
			if qn == nil {
				qn, qerr = nn.QuantizeInt8(net, samples)
			} else {
				qn.Refold()
			}
		}
		if inner != nil {
			inner(net, epoch)
		}
	}
	net, err := AdaptContext(ctx, base, samples, cfg)
	if err != nil {
		return nil, nil, err
	}
	if qerr != nil {
		return nil, nil, fmt.Errorf("adapt: quantize during adaptation: %w", qerr)
	}
	return net, qn, nil
}

// runner owns the per-step scratch of one adaptation run: the gathered
// batch, the MEMO augmented-copies matrix, the loss gradient, and the
// softmax scratch of the reliability filter. A zero runner is ready to
// use; buffers grow to the largest shape seen and are reused across
// every optimizer step, so steady-state adaptation does not allocate
// (pinned by TestAdaptSteadyStateAllocs).
type runner struct {
	batch, copies, dlogits tensor.Matrix
	probs                  []float64
}

// tentStep runs one TENT optimizer step on batch: an Adapt-mode forward
// pass, the entropy gradient (minus unreliable rows when filter > 0), a
// params-only backward down to the first adapted BN layer, and Adam.
func (run *runner) tentStep(net *nn.Network, opt nn.Optimizer, batch *tensor.Matrix, filter float64) {
	net.ZeroGrads()
	logits := net.Forward(batch, nn.Adapt)
	_, dlogits := nn.EntropyInto(&run.dlogits, logits)
	if filter > 0 {
		run.zeroUnreliableRows(logits, dlogits, filter)
	}
	net.BackwardParams(dlogits)
	opt.Step(net.Params())
}

// zeroUnreliableRows zeroes the gradient rows of samples whose prediction
// entropy exceeds frac·ln(C) — they still contribute to the BN batch
// statistics but not to the γ/β update.
func (run *runner) zeroUnreliableRows(logits, grad *tensor.Matrix, frac float64) {
	limit := frac * math.Log(float64(logits.Cols))
	if cap(run.probs) < logits.Cols {
		run.probs = make([]float64, logits.Cols)
	}
	probs := run.probs[:logits.Cols]
	for i := 0; i < logits.Rows; i++ {
		p := tensor.SoftmaxTo(probs, logits.Row(i))
		if nn.EntropyOf(p) > limit {
			g := grad.Row(i)
			for j := range g {
				g[j] = 0
			}
		}
	}
}

// gatherRows copies the selected rows of m into the runner's reused
// batch buffer.
func (run *runner) gatherRows(m *tensor.Matrix, sel []int) *tensor.Matrix {
	out := run.batch.Reshape(len(sel), m.Cols)
	for i, r := range sel {
		copy(out.Row(i), m.Row(r))
	}
	return out
}

// BNVersion is the deployable adaptation artifact: the batch-norm state
// of an adapted model tagged with the root cause it was adapted to. Only
// this (not the full model) is shipped to devices.
type BNVersion struct {
	ID        string
	Cause     rca.Cause // empty Items = the continuously-adapted clean model
	Snapshot  *nn.BNSnapshot
	CreatedAt time.Time
}

// SizeBytes returns the wire size of the version's BN payload.
func (v BNVersion) SizeBytes() int { return v.Snapshot.SizeBytes() }

// IsClean reports whether this is the clean (no-cause) model version.
func (v BNVersion) IsClean() bool { return len(v.Cause.Items) == 0 }

// SampleSource supplies the unlabeled uploaded samples associated with a
// root cause (nil/empty matrix when none were collected).
type SampleSource func(c rca.Cause) *tensor.Matrix

// ByCause produces one BN version per cause by adapting a clone of base
// on that cause's samples (Nazar's core adaptation strategy). Causes with
// fewer than minSamples uploads are skipped: adaptation on a handful of
// images underfits.
//
// Causes adapt concurrently over a bounded worker pool (at most
// tensor.Workers() runs in flight) — each run clones the base and they
// share no state (§5.8: "model adaptation can be easily parallelized").
// Each cause gets its own deterministic RNG derived from cfg.Rng's first
// draw and the cause key, and results land in index-addressed slots, so
// the output is identical at any pool width.
func ByCause(base *nn.Network, causes []rca.Cause, samples SampleSource, minSamples int, cfg Config, now time.Time) ([]BNVersion, error) {
	return ByCauseContext(context.Background(), base, causes, samples, minSamples, cfg, now)
}

// ByCauseContext is ByCause with cooperative cancellation: no new cause
// run is launched after the context is cancelled, and in-flight runs
// abort at their next optimizer step. A cancelled call returns ctx.Err()
// and no versions.
func ByCauseContext(ctx context.Context, base *nn.Network, causes []rca.Cause, samples SampleSource, minSamples int, cfg Config, now time.Time) ([]BNVersion, error) {
	if minSamples < 2 {
		minSamples = 2
	}
	cfg = cfg.withDefaults()
	baseSeed := cfg.Rng.Uint64()

	type slot struct {
		version BNVersion
		err     error
		ok      bool
	}
	slots := make([]slot, len(causes))
	sem := make(chan struct{}, tensor.Workers())
	var wg sync.WaitGroup
	for i, c := range causes {
		if ctx.Err() != nil {
			break
		}
		sx := samples(c)
		if sx == nil || sx.Rows < minSamples {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, c rca.Cause, sx *tensor.Matrix) {
			defer wg.Done()
			defer func() { <-sem }()
			causeCfg := cfg
			causeCfg.Rng = tensor.NewRand(baseSeed^hashKey(c.Key()), uint64(i)+1)
			adapted, err := AdaptContext(ctx, base, sx, causeCfg)
			if err != nil {
				slots[i] = slot{err: fmt.Errorf("adapt: cause %s: %w", c, err)}
				return
			}
			slots[i] = slot{
				version: BNVersion{
					ID:        fmt.Sprintf("%s@%d#%d", c.Key(), now.Unix(), i),
					Cause:     c,
					Snapshot:  nn.CaptureBN(adapted),
					CreatedAt: now,
				},
				ok: true,
			}
		}(i, c, sx)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var versions []BNVersion
	for _, s := range slots {
		if s.err != nil {
			return nil, s.err
		}
		if s.ok {
			versions = append(versions, s.version)
		}
	}
	return versions, nil
}

// hashKey derives a stable seed from a cause key.
func hashKey(s string) uint64 {
	h := uint64(1469598103934665603)
	for _, b := range []byte(s) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

// All adapts a single model on the pooled samples of every cause — the
// adapt-all baseline (what Ekya-style systems and plain TENT deployments
// do). Returns the adapted network.
func All(base *nn.Network, samples *tensor.Matrix, cfg Config) (*nn.Network, error) {
	return Adapt(base, samples, cfg)
}

// Materialize instantiates a runnable model from a base network and a BN
// version.
func Materialize(base *nn.Network, v BNVersion) (*nn.Network, error) {
	net := base.Clone()
	if err := v.Snapshot.ApplyTo(net); err != nil {
		return nil, fmt.Errorf("adapt: materialize %s: %w", v.ID, err)
	}
	return net, nil
}
