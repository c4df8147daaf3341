package mlearn

import (
	"math/rand"
)

// RFConfig configures a random forest.
type RFConfig struct {
	// Trees is the ensemble size. Zero means 25.
	Trees int

	// MaxDepth per tree. Zero means 8.
	MaxDepth int

	// MinLeaf per tree. Zero means 2.
	MinLeaf int

	// Mtry is the number of candidate features per split. Zero means
	// ⌈√d⌉.
	Mtry int

	// Seed drives bootstrap sampling and feature subsampling.
	Seed int64
}

// RandomForest is a bagged ensemble of CART trees with per-split feature
// subsampling — the paper's "RF". Probabilities are the mean of per-tree
// leaf estimates; out-of-bag probabilities are retained for stacking.
type RandomForest struct {
	cfg   RFConfig
	trees []*treeNode
	oob   []float64 // out-of-bag probability per training row
	hasOO []bool
}

var _ Classifier = (*RandomForest)(nil)

// NewRandomForest creates an unfitted forest.
func NewRandomForest(cfg RFConfig) *RandomForest {
	if cfg.Trees <= 0 {
		cfg.Trees = 30
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 10
	}
	if cfg.MinLeaf <= 0 {
		cfg.MinLeaf = 2
	}
	return &RandomForest{cfg: cfg}
}

// Fit grows the ensemble on bootstrap resamples with balanced class
// weights.
func (m *RandomForest) Fit(x [][]float64, y []int) error {
	return m.fitOn(newFitPlan(x), y)
}

func (m *RandomForest) fitOn(p *fitPlan, y []int) error {
	x := p.x
	d, err := validateXY(x, y)
	if err != nil {
		return err
	}
	// Default mtry is d/3 (the regression-forest convention) rather than
	// √d: leak signatures concentrate in the few sensors hydraulically
	// near each node, and √d subsampling rarely offers them to a split.
	mtry := m.cfg.Mtry
	if mtry <= 0 {
		mtry = (d + 2) / 3
		if mtry < 2 {
			mtry = 2
		}
	}
	cw := classWeights(y)
	n := len(x)
	target := make([]float64, n)
	baseWeight := make([]float64, n)
	for i, v := range y {
		target[i] = float64(v)
		baseWeight[i] = cw[v]
	}

	rng := rand.New(rand.NewSource(m.cfg.Seed))
	m.trees = make([]*treeNode, 0, m.cfg.Trees)
	oobSum := make([]float64, n)
	oobCount := make([]int, n)
	weight := make([]float64, n)
	bin := p.binner() // shared across all trees

	for t := 0; t < m.cfg.Trees; t++ {
		// Bootstrap as multiplicative weights (keeps index slices simple).
		for i := range weight {
			weight[i] = 0
		}
		inBag := make([]bool, n)
		for k := 0; k < n; k++ {
			i := rng.Intn(n)
			weight[i] += baseWeight[i]
			inBag[i] = true
		}
		var indices []int
		for i := 0; i < n; i++ {
			if inBag[i] {
				indices = append(indices, i)
			}
		}
		treeRng := rand.New(rand.NewSource(m.cfg.Seed + int64(t)*7919 + 1))
		g := newGrower(bin, target, weight, growConfig{
			maxDepth: m.cfg.MaxDepth,
			minLeaf:  m.cfg.MinLeaf,
			mtry:     mtry,
			rng:      treeRng,
			leafValue: func(idx []int) float64 {
				var w, wt float64
				for _, i := range idx {
					w += weight[i]
					wt += weight[i] * target[i]
				}
				if w <= 0 {
					return 0
				}
				return wt / w
			},
		})
		root := g.grow(indices, 0)
		m.trees = append(m.trees, root)

		for i := 0; i < n; i++ {
			if !inBag[i] {
				oobSum[i] += root.predict(x[i])
				oobCount[i]++
			}
		}
	}

	m.oob = make([]float64, n)
	m.hasOO = make([]bool, n)
	for i := 0; i < n; i++ {
		if oobCount[i] > 0 {
			m.oob[i] = oobSum[i] / float64(oobCount[i])
			m.hasOO[i] = true
		}
	}
	return nil
}

// PredictProba averages the trees' leaf probabilities. Non-finite
// features are treated as 0 (see Classifier).
func (m *RandomForest) PredictProba(x []float64) float64 {
	if len(m.trees) == 0 {
		return 0
	}
	x = cleanFeatures(x)
	sum := 0.0
	for _, t := range m.trees {
		sum += t.predict(x)
	}
	return clamp01(sum / float64(len(m.trees)))
}

// OOBProba returns the out-of-bag probability for training row i and
// whether row i was ever out of bag. Used by HybridRSL to build unbiased
// meta-features.
func (m *RandomForest) OOBProba(i int) (float64, bool) {
	if m.oob == nil || i < 0 || i >= len(m.oob) {
		return 0, false
	}
	return m.oob[i], m.hasOO[i]
}
