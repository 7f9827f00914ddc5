package nn

import (
	"math"

	"nazar/internal/tensor"
)

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update to every non-frozen parameter and clears
	// its gradient. Frozen parameters are skipped: their gradients are
	// never written, so there is nothing to clear.
	Step(params []*Param)
}

// SGD is stochastic gradient descent with classical momentum and optional
// L2 weight decay.
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64

	velocity map[*Param]*tensor.Matrix
}

// NewSGD returns an SGD optimizer.
func NewSGD(lr, momentum, weightDecay float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay, velocity: map[*Param]*tensor.Matrix{}}
}

func (s *SGD) Step(params []*Param) {
	for _, p := range params {
		if p.Frozen {
			continue
		}
		if s.WeightDecay != 0 {
			p.Grad.AddScaled(p.W, s.WeightDecay)
		}
		if s.Momentum != 0 {
			v, ok := s.velocity[p]
			if !ok {
				v = tensor.New(p.W.Rows, p.W.Cols)
				s.velocity[p] = v
			}
			v.Scale(s.Momentum)
			v.Add(p.Grad)
			p.W.AddScaled(v, -s.LR)
		} else {
			p.W.AddScaled(p.Grad, -s.LR)
		}
		p.Grad.Zero()
	}
}

// Adam is the Adam optimizer (Kingma & Ba). TENT's reference
// implementation adapts BN parameters with Adam; we default to it for
// adaptation too.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t int
	m map[*Param]*tensor.Matrix
	v map[*Param]*tensor.Matrix
}

// NewAdam returns an Adam optimizer with the standard β defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: map[*Param]*tensor.Matrix{}, v: map[*Param]*tensor.Matrix{}}
}

func (a *Adam) Step(params []*Param) {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		if p.Frozen {
			continue
		}
		m, ok := a.m[p]
		if !ok {
			m = tensor.New(p.W.Rows, p.W.Cols)
			a.m[p] = m
			a.v[p] = tensor.New(p.W.Rows, p.W.Cols)
		}
		v := a.v[p]
		for i, g := range p.Grad.Data {
			m.Data[i] = float64(a.Beta1*m.Data[i]) + float64((1-a.Beta1)*g)
			v.Data[i] = float64(a.Beta2*v.Data[i]) + float64((1-a.Beta2)*g*g)
			mhat := m.Data[i] / bc1
			vhat := v.Data[i] / bc2
			p.W.Data[i] -= a.LR * mhat / (math.Sqrt(vhat) + a.Eps)
		}
		p.Grad.Zero()
	}
}
