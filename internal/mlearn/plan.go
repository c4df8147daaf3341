package mlearn

import "sync"

// fitPlan is the per-X work that every fit in a classifier bank would
// otherwise repeat: the quantile binner the tree learners split on, and
// the standardization (scaler plus standardized rows) the SVM, linear and
// logistic learners train on. MultiOutput builds one plan per feature
// matrix and shares it read-only with every per-node fit; a stand-alone
// Fit builds a private one. Each part is computed on first use, so a
// bank pays only for what its technique reads.
//
// A plan holds exactly what each fit used to compute for itself, by the
// same code, so sharing it moves work without moving bits.
type fitPlan struct {
	x [][]float64

	binOnce sync.Once
	bin     *binner

	scaleOnce sync.Once
	scale     *scaler
	xs        [][]float64 // xs[i] = scale.transform(x[i])
}

func newFitPlan(x [][]float64) *fitPlan { return &fitPlan{x: x} }

// binner returns the quantile bins of X. Callers must have validated X.
func (p *fitPlan) binner() *binner {
	p.binOnce.Do(func() { p.bin = newBinner(p.x) })
	return p.bin
}

// standardized returns X's scaler and the standardized rows. Callers
// must have validated X and must not modify either.
func (p *fitPlan) standardized() (*scaler, [][]float64) {
	p.scaleOnce.Do(func() {
		p.scale = fitScaler(p.x)
		p.xs = make([][]float64, len(p.x))
		for i, row := range p.x {
			p.xs[i] = p.scale.transform(row)
		}
	})
	return p.scale, p.xs
}

// planFitter is a classifier that can train from a shared plan; its Fit
// is fitOn(newFitPlan(x), y).
type planFitter interface {
	fitOn(p *fitPlan, y []int) error
}
