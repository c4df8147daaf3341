package mlearn

import (
	"math"

	"github.com/aquascale/aquascale/internal/matrix"
)

// scaler standardizes features to zero mean and unit variance, which the
// gradient-based learners (logistic regression, SVM) need because pressure
// deltas (m) and flow deltas (m³/s) differ by orders of magnitude.
type scaler struct {
	mean []float64
	inv  []float64 // 1/std, 1 for constant features
}

func fitScaler(x [][]float64) *scaler {
	d := len(x[0])
	s := &scaler{mean: make([]float64, d), inv: make([]float64, d)}
	n := float64(len(x))
	for _, row := range x {
		for j, v := range row {
			s.mean[j] += v
		}
	}
	for j := range s.mean {
		s.mean[j] /= n
	}
	varAcc := make([]float64, d)
	for _, row := range x {
		for j, v := range row {
			dv := v - s.mean[j]
			varAcc[j] += dv * dv
		}
	}
	for j := range varAcc {
		std := math.Sqrt(varAcc[j] / n)
		if std < 1e-12 {
			s.inv[j] = 1
		} else {
			s.inv[j] = 1 / std
		}
	}
	return s
}

func (s *scaler) transform(x []float64) []float64 {
	out := make([]float64, len(x))
	for j, v := range x {
		out[j] = (v - s.mean[j]) * s.inv[j]
	}
	return out
}

// LinearConfig configures ridge linear regression.
type LinearConfig struct {
	// Lambda is the L2 penalty. Zero means 1e-3.
	Lambda float64
}

// LinearRegression is a ridge least-squares fit of the binary label,
// interpreted as a probability after clipping to [0, 1] — the paper's
// "LinearR" baseline.
type LinearRegression struct {
	cfg    LinearConfig
	scale  *scaler
	w      []float64
	bias   float64
	fitted bool
}

var _ Classifier = (*LinearRegression)(nil)

// NewLinearRegression creates an unfitted ridge regressor.
func NewLinearRegression(cfg LinearConfig) *LinearRegression {
	if cfg.Lambda <= 0 {
		cfg.Lambda = 1e-3
	}
	return &LinearRegression{cfg: cfg}
}

// Fit solves the weighted normal equations (XᵀWX + λI)β = XᵀWy with
// balanced class weights.
func (m *LinearRegression) Fit(x [][]float64, y []int) error {
	return m.fitOn(newFitPlan(x), y)
}

func (m *LinearRegression) fitOn(plan *fitPlan, y []int) error {
	d, err := validateXY(plan.x, y)
	if err != nil {
		return err
	}
	var xs [][]float64
	m.scale, xs = plan.standardized()
	cw := classWeights(y)

	// Augment with a bias column (index d).
	cols := d + 1
	a := matrix.NewDense(cols, cols)
	b := make([]float64, cols)
	row := make([]float64, cols)
	for i, xi := range xs {
		copy(row, xi)
		row[d] = 1
		w := cw[y[i]]
		yi := float64(y[i])
		for p := 0; p < cols; p++ {
			if row[p] == 0 {
				continue
			}
			wp := w * row[p]
			for q := p; q < cols; q++ {
				a.Add(p, q, wp*row[q])
			}
			b[p] += wp * yi
		}
	}
	// Mirror the upper triangle and add the ridge.
	for p := 0; p < cols; p++ {
		for q := p + 1; q < cols; q++ {
			a.Set(q, p, a.At(p, q))
		}
		a.Add(p, p, m.cfg.Lambda*float64(len(xs)))
	}
	beta, err := matrix.SolveSPD(a, b)
	if err != nil {
		return err
	}
	m.w = beta[:d]
	m.bias = beta[d]
	m.fitted = true
	return nil
}

// PredictProba returns the clipped linear response. Non-finite features
// are treated as 0 (see Classifier).
func (m *LinearRegression) PredictProba(x []float64) float64 {
	if !m.fitted {
		return 0
	}
	xi := m.scale.transform(cleanFeatures(x))
	return clamp01(matrix.Dot(m.w, xi) + m.bias)
}

// LogisticConfig configures logistic regression.
type LogisticConfig struct {
	// Lambda is the L2 penalty. Zero means 1e-4.
	Lambda float64

	// LearningRate for full-batch gradient descent. Zero means 0.5.
	LearningRate float64

	// Epochs of gradient descent. Zero means 300.
	Epochs int
}

// LogisticRegression is L2-regularized logistic regression trained with
// full-batch gradient descent over standardized features — the paper's
// "LogisticR" and the fusion layer of HybridRSL.
type LogisticRegression struct {
	cfg    LogisticConfig
	scale  *scaler
	w      []float64
	bias   float64
	fitted bool
}

var _ Classifier = (*LogisticRegression)(nil)

// NewLogisticRegression creates an unfitted logistic regressor.
func NewLogisticRegression(cfg LogisticConfig) *LogisticRegression {
	if cfg.Lambda <= 0 {
		cfg.Lambda = 1e-4
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 0.5
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 300
	}
	return &LogisticRegression{cfg: cfg}
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// Fit runs weighted batch gradient descent on the logistic loss.
func (m *LogisticRegression) Fit(x [][]float64, y []int) error {
	return m.fitOn(newFitPlan(x), y)
}

func (m *LogisticRegression) fitOn(p *fitPlan, y []int) error {
	d, err := validateXY(p.x, y)
	if err != nil {
		return err
	}
	var xs [][]float64
	m.scale, xs = p.standardized()
	cw := classWeights(y)

	totalW := 0.0
	for _, v := range y {
		totalW += cw[v]
	}
	m.w = make([]float64, d)
	m.bias = 0
	grad := make([]float64, d)
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		for j := range grad {
			grad[j] = 0
		}
		gBias := 0.0
		for i, xi := range xs {
			p := sigmoid(matrix.Dot(m.w, xi) + m.bias)
			g := cw[y[i]] * (p - float64(y[i]))
			matrix.AxpY(g, xi, grad)
			gBias += g
		}
		inv := 1 / totalW
		lr := m.cfg.LearningRate
		for j := range m.w {
			m.w[j] -= lr * (grad[j]*inv + m.cfg.Lambda*m.w[j])
		}
		m.bias -= lr * gBias * inv
	}
	m.fitted = true
	return nil
}

// PredictProba returns the sigmoid response. Non-finite features are
// treated as 0 (see Classifier).
func (m *LogisticRegression) PredictProba(x []float64) float64 {
	if !m.fitted {
		return 0
	}
	xi := m.scale.transform(cleanFeatures(x))
	return sigmoid(matrix.Dot(m.w, xi) + m.bias)
}
