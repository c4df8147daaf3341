package mlearn

import (
	"math"
	"math/rand"
)

// GBConfig configures gradient boosting.
type GBConfig struct {
	// Rounds is the number of boosting stages. Zero means 60.
	Rounds int

	// LearningRate shrinks each stage. Zero means 0.1.
	LearningRate float64

	// MaxDepth per stage tree. Zero means 3.
	MaxDepth int

	// Subsample is the stochastic-boosting row fraction. Zero means 0.8.
	Subsample float64

	// Seed drives subsampling.
	Seed int64
}

// GradientBoosting is gradient-boosted trees on the logistic loss — the
// paper's "GB". Each stage fits a shallow regression tree to the loss
// gradient and applies a Newton leaf update.
type GradientBoosting struct {
	cfg   GBConfig
	bias  float64 // initial log-odds
	trees []*treeNode
}

var _ Classifier = (*GradientBoosting)(nil)

// NewGradientBoosting creates an unfitted booster.
func NewGradientBoosting(cfg GBConfig) *GradientBoosting {
	if cfg.Rounds <= 0 {
		cfg.Rounds = 60
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 0.1
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 3
	}
	if cfg.Subsample <= 0 || cfg.Subsample > 1 {
		cfg.Subsample = 0.8
	}
	return &GradientBoosting{cfg: cfg}
}

// Fit runs Newton-style boosting with balanced class weights.
func (m *GradientBoosting) Fit(x [][]float64, y []int) error {
	return m.fitOn(newFitPlan(x), y)
}

func (m *GradientBoosting) fitOn(p *fitPlan, y []int) error {
	x := p.x
	if _, err := validateXY(x, y); err != nil {
		return err
	}
	n := len(x)
	cw := classWeights(y)
	weight := make([]float64, n)
	wPos, wTot := 0.0, 0.0
	for i, v := range y {
		weight[i] = cw[v]
		wTot += weight[i]
		if v == 1 {
			wPos += weight[i]
		}
	}
	// Initial score: weighted log-odds, clipped away from ±∞.
	p0 := wPos / wTot
	if p0 < 1e-6 {
		p0 = 1e-6
	}
	if p0 > 1-1e-6 {
		p0 = 1 - 1e-6
	}
	m.bias = math.Log(p0 / (1 - p0))

	score := make([]float64, n)
	for i := range score {
		score[i] = m.bias
	}
	residual := make([]float64, n)
	hessian := make([]float64, n)
	rng := rand.New(rand.NewSource(m.cfg.Seed))
	m.trees = make([]*treeNode, 0, m.cfg.Rounds)
	bin := p.binner() // shared across all boosting rounds

	for round := 0; round < m.cfg.Rounds; round++ {
		for i := 0; i < n; i++ {
			p := sigmoid(score[i])
			residual[i] = float64(y[i]) - p
			hessian[i] = p * (1 - p)
		}
		// Stochastic subsample of rows.
		var indices []int
		if m.cfg.Subsample < 1 {
			for i := 0; i < n; i++ {
				if rng.Float64() < m.cfg.Subsample {
					indices = append(indices, i)
				}
			}
			if len(indices) < 4 {
				indices = nil
			}
		}
		if indices == nil {
			indices = make([]int, n)
			for i := range indices {
				indices[i] = i
			}
		}

		g := newGrower(bin, residual, weight, growConfig{
			maxDepth: m.cfg.MaxDepth,
			minLeaf:  4,
			leafValue: func(idx []int) float64 {
				// Newton step: Σw·r / Σw·p(1−p).
				var num, den float64
				for _, i := range idx {
					num += weight[i] * residual[i]
					den += weight[i] * hessian[i]
				}
				if den < 1e-9 {
					return 0
				}
				v := num / den
				// Clip extreme leaf values for stability.
				if v > 4 {
					v = 4
				}
				if v < -4 {
					v = -4
				}
				return v
			},
		})
		root := g.grow(indices, 0)
		m.trees = append(m.trees, root)
		for i := 0; i < n; i++ {
			score[i] += m.cfg.LearningRate * root.predict(x[i])
		}
	}
	return nil
}

// PredictProba returns the sigmoid of the boosted score. Non-finite
// features are treated as 0 (see Classifier).
func (m *GradientBoosting) PredictProba(x []float64) float64 {
	if m.trees == nil {
		return 0
	}
	x = cleanFeatures(x)
	score := m.bias
	for _, t := range m.trees {
		score += m.cfg.LearningRate * t.predict(x)
	}
	return sigmoid(score)
}
