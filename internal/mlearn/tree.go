package mlearn

import (
	"math/rand"
	"sort"
)

// CART trees with histogram-based split finding: every feature is
// quantile-binned once per Fit (at most 32 bins), and split search scans
// per-bin weight/target histograms instead of re-sorting samples at every
// node. This is the standard trick from modern boosting systems; it makes
// per-node split cost O(samples + bins) per feature and lets the forest
// and booster train on tens of thousands of hydraulic scenarios.

const maxBins = 32

// binner holds per-feature quantile bin edges and the precomputed bin
// index of every (sample, feature) pair.
type binner struct {
	// edges[f] are ascending cut values; bin b covers values in
	// (edges[b-1], edges[b]]; the last bin is open-ended.
	edges [][]float64

	// bins is column-major: bins[f*n+i] is sample i's bin for feature f,
	// so a histogram scan or a partition reads one contiguous column.
	bins []uint8
	n    int
}

// newBinner computes quantile bins for the feature matrix.
func newBinner(x [][]float64) *binner {
	n := len(x)
	d := len(x[0])
	b := &binner{
		edges: make([][]float64, d),
		bins:  make([]uint8, d*n),
		n:     n,
	}
	vals := make([]float64, n)
	for f := 0; f < d; f++ {
		for i := range x {
			vals[i] = x[i][f]
		}
		sort.Float64s(vals)
		// Up to maxBins-1 quantile cuts, deduplicated.
		var edges []float64
		for k := 1; k < maxBins; k++ {
			q := vals[k*(n-1)/maxBins]
			if len(edges) == 0 || q > edges[len(edges)-1] {
				edges = append(edges, q)
			}
		}
		b.edges[f] = edges
		col := b.column(f)
		for i := range x {
			// SearchFloat64s returns the first edge ≥ value, so values
			// equal to an edge land in that edge's bin — consistent with
			// the (lo, hi] convention used at prediction time.
			col[i] = uint8(sort.SearchFloat64s(edges, x[i][f]))
		}
	}
	return b
}

// column returns feature f's bin indices, one per sample.
func (b *binner) column(f int) []uint8 {
	return b.bins[f*b.n : (f+1)*b.n : (f+1)*b.n]
}

// threshold returns the split value for "bin ≤ b": the edge value itself
// (prediction uses x ≤ threshold ⇒ left, matching SearchFloat64s).
func (b *binner) threshold(f, bin int) float64 {
	return b.edges[f][bin]
}

// treeNode is one node of a binary CART tree. Leaves carry the prediction
// (class-1 probability for classification trees, additive value for
// boosted regression trees).
type treeNode struct {
	feature   int
	threshold float64
	left      *treeNode
	right     *treeNode
	value     float64
	leaf      bool
}

func (n *treeNode) predict(x []float64) float64 {
	for !n.leaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

// growConfig parameterizes the CART grower.
type growConfig struct {
	maxDepth int
	minLeaf  int
	mtry     int        // candidate features per split; 0 = all
	rng      *rand.Rand // required when mtry > 0

	// leafValue computes a leaf's prediction from its sample indices. For
	// classification this is the weighted positive fraction; boosting uses
	// a Newton step.
	leafValue func(indices []int) float64
}

// grower builds CART trees by weighted-variance reduction over binned
// features. For binary 0/1 targets weighted variance is p(1−p)·W —
// proportional to weighted Gini — so the same criterion serves
// classification and regression.
type grower struct {
	bin    *binner
	target []float64
	weight []float64
	cfg    growConfig
	feats  []int // scratch: candidate feature ids

	histW  [maxBins]float64
	histWT [maxBins]float64
}

// newGrower prepares a grower; bin may be shared across trees built from
// the same matrix (random forest, boosting rounds, a whole bank).
func newGrower(bin *binner, target, weight []float64, cfg growConfig) *grower {
	if cfg.maxDepth <= 0 {
		cfg.maxDepth = 6
	}
	if cfg.minLeaf <= 0 {
		cfg.minLeaf = 2
	}
	g := &grower{bin: bin, target: target, weight: weight, cfg: cfg}
	g.feats = make([]int, len(bin.edges))
	for j := range g.feats {
		g.feats[j] = j
	}
	return g
}

// growAll builds a tree over all samples.
func (g *grower) growAll() *treeNode {
	indices := make([]int, g.bin.n)
	for i := range indices {
		indices[i] = i
	}
	return g.grow(indices, 0)
}

func growTree(x [][]float64, target, weight []float64, cfg growConfig) *treeNode {
	return newGrower(newBinner(x), target, weight, cfg).growAll()
}

func (g *grower) grow(indices []int, depth int) *treeNode {
	if depth >= g.cfg.maxDepth || len(indices) < 2*g.cfg.minLeaf || g.pure(indices) {
		return &treeNode{leaf: true, value: g.cfg.leafValue(indices)}
	}
	feat, bin, ok := g.bestSplit(indices)
	if !ok {
		return &treeNode{leaf: true, value: g.cfg.leafValue(indices)}
	}
	// Partition in place: left = bin ≤ split bin.
	col := g.bin.column(feat)
	lo, hi := 0, len(indices)
	for lo < hi {
		if int(col[indices[lo]]) <= bin {
			lo++
		} else {
			hi--
			indices[lo], indices[hi] = indices[hi], indices[lo]
		}
	}
	left, right := indices[:lo], indices[lo:]
	if len(left) < g.cfg.minLeaf || len(right) < g.cfg.minLeaf {
		return &treeNode{leaf: true, value: g.cfg.leafValue(indices)}
	}
	return &treeNode{
		feature:   feat,
		threshold: g.bin.threshold(feat, bin),
		left:      g.grow(left, depth+1),
		right:     g.grow(right, depth+1),
	}
}

func (g *grower) pure(indices []int) bool {
	first := g.target[indices[0]]
	for _, i := range indices[1:] {
		if g.target[i] != first {
			return false
		}
	}
	return true
}

// bestSplit scans candidate features' bin histograms for the split with
// the greatest weighted-variance reduction. It returns the feature and the
// highest bin index of the left child.
func (g *grower) bestSplit(indices []int) (feature, bin int, ok bool) {
	candidates := g.feats
	if g.cfg.mtry > 0 && g.cfg.mtry < len(g.feats) {
		g.cfg.rng.Shuffle(len(g.feats), func(i, j int) { g.feats[i], g.feats[j] = g.feats[j], g.feats[i] })
		candidates = g.feats[:g.cfg.mtry]
	}

	var wSum, wtSum float64
	for _, i := range indices {
		wSum += g.weight[i]
		wtSum += g.weight[i] * g.target[i]
	}
	if wSum <= 0 {
		return 0, 0, false
	}
	parentScore := wtSum * wtSum / wSum

	bestGain := 1e-12
	for _, f := range candidates {
		nb := len(g.bin.edges[f]) + 1
		if nb < 2 {
			continue
		}
		for b := 0; b < nb; b++ {
			g.histW[b] = 0
			g.histWT[b] = 0
		}
		col := g.bin.column(f)
		for _, i := range indices {
			b := col[i]
			g.histW[b] += g.weight[i]
			g.histWT[b] += g.weight[i] * g.target[i]
		}
		var lw, lwt float64
		for b := 0; b+1 < nb; b++ {
			lw += g.histW[b]
			lwt += g.histWT[b]
			if lw <= 0 {
				continue
			}
			rw := wSum - lw
			if rw <= 0 {
				break
			}
			rwt := wtSum - lwt
			gain := lwt*lwt/lw + rwt*rwt/rw - parentScore
			if gain > bestGain {
				bestGain = gain
				feature = f
				bin = b
				ok = true
			}
		}
	}
	return feature, bin, ok
}

// TreeConfig configures a single CART classification tree.
type TreeConfig struct {
	// MaxDepth bounds tree depth. Zero means 6.
	MaxDepth int

	// MinLeaf is the minimum samples per leaf. Zero means 2.
	MinLeaf int
}

// DecisionTree is a CART classifier with weighted-Gini splits and
// class-balanced sample weights. Leaves predict the weighted positive
// fraction.
type DecisionTree struct {
	cfg  TreeConfig
	root *treeNode
}

var _ Classifier = (*DecisionTree)(nil)

// NewDecisionTree creates an unfitted CART tree.
func NewDecisionTree(cfg TreeConfig) *DecisionTree {
	return &DecisionTree{cfg: cfg}
}

// Fit grows the tree.
func (m *DecisionTree) Fit(x [][]float64, y []int) error {
	if _, err := validateXY(x, y); err != nil {
		return err
	}
	cw := classWeights(y)
	target := make([]float64, len(y))
	weight := make([]float64, len(y))
	for i, v := range y {
		target[i] = float64(v)
		weight[i] = cw[v]
	}
	m.root = growTree(x, target, weight, growConfig{
		maxDepth: m.cfg.MaxDepth,
		minLeaf:  m.cfg.MinLeaf,
		leafValue: func(indices []int) float64 {
			var w, wt float64
			for _, i := range indices {
				w += weight[i]
				wt += weight[i] * target[i]
			}
			if w <= 0 {
				return 0
			}
			return wt / w
		},
	})
	return nil
}

// PredictProba returns the leaf's positive fraction. Non-finite
// features are treated as 0 (see Classifier).
func (m *DecisionTree) PredictProba(x []float64) float64 {
	if m.root == nil {
		return 0
	}
	return clamp01(m.root.predict(cleanFeatures(x)))
}
