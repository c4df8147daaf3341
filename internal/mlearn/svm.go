package mlearn

import (
	"math"
	"math/rand"

	"github.com/aquascale/aquascale/internal/matrix"
)

// SVMConfig configures the linear SVM.
type SVMConfig struct {
	// Lambda is the regularization strength of the primal objective.
	// Zero means 1e-3.
	Lambda float64

	// Epochs of Pegasos stochastic subgradient descent. Zero means 40.
	Epochs int

	// Seed drives sampling order.
	Seed int64
}

// SVM is a linear soft-margin support vector machine trained with the
// Pegasos stochastic subgradient method — the paper's "SVM". Probabilities
// come from Platt scaling: a logistic sigmoid fitted to the decision
// margins.
type SVM struct {
	cfg    SVMConfig
	scale  *scaler
	w      []float64
	bias   float64
	plattA float64
	plattB float64
	fitted bool
}

var _ Classifier = (*SVM)(nil)

// NewSVM creates an unfitted SVM.
func NewSVM(cfg SVMConfig) *SVM {
	if cfg.Lambda <= 0 {
		cfg.Lambda = 1e-3
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 40
	}
	return &SVM{cfg: cfg}
}

// Fit runs Pegasos with balanced class weights, then fits the Platt
// sigmoid on the training margins.
func (m *SVM) Fit(x [][]float64, y []int) error {
	return m.fitOn(newFitPlan(x), y)
}

func (m *SVM) fitOn(p *fitPlan, y []int) error {
	d, err := validateXY(p.x, y)
	if err != nil {
		return err
	}
	var xs [][]float64
	m.scale, xs = p.standardized()
	cw := classWeights(y)
	n := len(xs)
	sign := make([]float64, n)
	for i := range xs {
		if y[i] == 1 {
			sign[i] = 1
		} else {
			sign[i] = -1
		}
	}

	rng := rand.New(rand.NewSource(m.cfg.Seed))
	m.w = make([]float64, d)
	m.bias = 0
	lambda := m.cfg.Lambda
	t := 0
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		for _, i := range rng.Perm(n) {
			t++
			eta := 1 / (lambda * float64(t))
			margin := sign[i] * (matrix.Dot(m.w, xs[i]) + m.bias)
			matrix.Scale(1-eta*lambda, m.w)
			if margin < 1 {
				c := eta * cw[y[i]] * sign[i]
				matrix.AxpY(c, xs[i], m.w)
				m.bias += c
			}
		}
	}

	// Platt scaling on the training margins, with the standard label
	// smoothing to avoid overconfidence.
	margins := make([]float64, n)
	for i := range xs {
		margins[i] = matrix.Dot(m.w, xs[i]) + m.bias
	}
	m.plattA, m.plattB = fitPlatt(margins, y)
	m.fitted = true
	return nil
}

// Platt-scaling solver constants (Lin, Lin & Weng 2007, "A note on
// Platt's probabilistic outputs for support vector machines").
const (
	plattMaxIter = 100   // Newton iterations
	plattMinStep = 1e-10 // smallest backtracking step before giving up
	plattGradTol = 1e-5  // stop once both gradient components are below
	plattSigma   = 1e-12 // Hessian ridge keeping the 2×2 system solvable
	plattArmijo  = 1e-4  // sufficient-decrease fraction of the line search
)

// fitPlatt fits P(y=1|m) = sigmoid(A·m + B) to the margins by minimizing
// the cross-entropy against Platt's smoothed targets, with Newton's
// method and a backtracking line search (Lin, Lin & Weng 2007). It
// converges in about ten passes where fixed-rate gradient descent would
// need thousands; a non-finite solution falls back to (1, 0).
func fitPlatt(margins []float64, y []int) (a, b float64) {
	nPos, nNeg := 0, 0
	for _, v := range y {
		if v == 1 {
			nPos++
		} else {
			nNeg++
		}
	}
	tPos := (float64(nPos) + 1) / (float64(nPos) + 2)
	tNeg := 1 / (float64(nNeg) + 2)
	targets := make([]float64, len(y))
	for i, v := range y {
		if v == 1 {
			targets[i] = tPos
		} else {
			targets[i] = tNeg
		}
	}

	// Start at slope 0 and the prior log-odds.
	a, b = 0, math.Log((float64(nPos)+1)/(float64(nNeg)+1))
	loss := plattLoss(margins, targets, a, b)
	for iter := 0; iter < plattMaxIter; iter++ {
		// Gradient and Hessian of the loss in (A, B).
		var ga, gb float64
		haa, hbb, hab := plattSigma, plattSigma, 0.0
		for i, mgn := range margins {
			p := sigmoid(a*mgn + b)
			g := p - targets[i]
			ga += g * mgn
			gb += g
			w := p * (1 - p)
			haa += w * mgn * mgn
			hbb += w
			hab += w * mgn
		}
		if math.Abs(ga) < plattGradTol && math.Abs(gb) < plattGradTol {
			break
		}
		det := haa*hbb - hab*hab
		da := -(hbb*ga - hab*gb) / det
		db := -(haa*gb - hab*ga) / det
		slope := ga*da + gb*db

		step := 1.0
		for ; step >= plattMinStep; step /= 2 {
			na, nb := a+step*da, b+step*db
			if nl := plattLoss(margins, targets, na, nb); nl < loss+plattArmijo*step*slope {
				a, b, loss = na, nb, nl
				break
			}
		}
		if step < plattMinStep {
			break // no descent along the Newton direction: at the optimum to rounding
		}
	}
	if nonFinite(a) || nonFinite(b) {
		return 1, 0
	}
	return a, b
}

// plattLoss is the cross-entropy of sigmoid(a·m + b) against the
// targets, summed in the form that cannot overflow:
// log(1 + e^z) − t·z.
func plattLoss(margins, targets []float64, a, b float64) float64 {
	var sum float64
	for i, mgn := range margins {
		z := a*mgn + b
		if z >= 0 {
			sum += (1-targets[i])*z + math.Log1p(math.Exp(-z))
		} else {
			sum += math.Log1p(math.Exp(z)) - targets[i]*z
		}
	}
	return sum
}

// PredictProba returns the Platt-scaled margin. Non-finite features are
// treated as 0 (see Classifier).
func (m *SVM) PredictProba(x []float64) float64 {
	if !m.fitted {
		return 0
	}
	xi := m.scale.transform(cleanFeatures(x))
	margin := matrix.Dot(m.w, xi) + m.bias
	return sigmoid(m.plattA*margin + m.plattB)
}

// Margin returns the raw decision value (distance from the separating
// hyperplane in scaled feature space).
func (m *SVM) Margin(x []float64) float64 {
	if !m.fitted {
		return 0
	}
	xi := m.scale.transform(cleanFeatures(x))
	return matrix.Dot(m.w, xi) + m.bias
}
