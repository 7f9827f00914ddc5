package nn

import "math"

// LRSchedule maps an epoch index to a learning-rate multiplier (applied
// to the optimizer's base LR).
type LRSchedule func(epoch int) float64

// ConstantLR keeps the base learning rate.
func ConstantLR() LRSchedule { return func(int) float64 { return 1 } }

// CosineLR decays the multiplier from 1 to floor over totalEpochs with a
// half-cosine (the schedule modern training recipes default to).
func CosineLR(totalEpochs int, floor float64) LRSchedule {
	if totalEpochs < 1 {
		totalEpochs = 1
	}
	return func(epoch int) float64 {
		if epoch >= totalEpochs {
			return floor
		}
		t := float64(epoch) / float64(totalEpochs)
		return floor + float64((1-floor)*(1+math.Cos(math.Pi*t))/2)
	}
}

// StepLR multiplies the rate by gamma every stepEvery epochs.
func StepLR(stepEvery int, gamma float64) LRSchedule {
	if stepEvery < 1 {
		stepEvery = 1
	}
	return func(epoch int) float64 {
		return math.Pow(gamma, float64(epoch/stepEvery))
	}
}

// WarmupLR ramps linearly from 0 to 1 over warmupEpochs, then delegates
// to next.
func WarmupLR(warmupEpochs int, next LRSchedule) LRSchedule {
	return func(epoch int) float64 {
		if epoch < warmupEpochs {
			return float64(epoch+1) / float64(warmupEpochs)
		}
		return next(epoch - warmupEpochs)
	}
}

// ClipGradients scales every unfrozen parameter gradient so the global
// L2 norm is at most maxNorm, returning the pre-clip norm. No-op when
// the norm is already within bounds or maxNorm <= 0.
func ClipGradients(params []*Param, maxNorm float64) float64 {
	var sq float64
	for _, p := range params {
		if p.Frozen {
			continue
		}
		for _, g := range p.Grad.Data {
			sq += float64(g * g)
		}
	}
	norm := math.Sqrt(sq)
	if maxNorm <= 0 || norm <= maxNorm || norm == 0 {
		return norm
	}
	scale := maxNorm / norm
	for _, p := range params {
		if p.Frozen {
			continue
		}
		p.Grad.Scale(scale)
	}
	return norm
}

// EarlyStopper tracks a validation metric (higher is better) and reports
// when patience epochs have passed without improvement.
type EarlyStopper struct {
	// Patience is how many non-improving epochs to tolerate.
	Patience int
	// MinDelta is the improvement below which an epoch does not count.
	MinDelta float64

	best    float64
	bad     int
	started bool
}

// Observe records one epoch's metric; it returns true when training
// should stop.
func (e *EarlyStopper) Observe(metric float64) bool {
	if !e.started || metric > e.best+e.MinDelta {
		e.best = metric
		e.bad = 0
		e.started = true
		return false
	}
	e.bad++
	return e.bad > e.Patience
}

// Best returns the best metric seen.
func (e *EarlyStopper) Best() float64 { return e.best }
