// Package core is the AquaSCALE engine: it wires the hydraulic substrate,
// the IoT/weather/human information sources and the plug-and-play analytic
// suite into the paper's two-phase workflow — offline profile training
// (Phase I, Algorithm 1) and online multi-source leak localization
// (Phase II, Algorithm 2).
package core

import (
	"context"
	"fmt"

	"github.com/aquascale/aquascale/internal/dataset"
	"github.com/aquascale/aquascale/internal/mlearn"
)

// ProfileConfig selects the Phase-I learning technique.
type ProfileConfig struct {
	// Technique selects the classifier (TechniqueLinear … TechniqueHybridRSL,
	// or any name registered with mlearn.Register). The zero value means
	// TechniqueHybridRSL, the paper's best performer.
	Technique Technique

	// Seed drives all stochastic training.
	Seed int64
}

// Profile is the paper's offline profile model f = {f_v : v ∈ V}: one
// binary classifier per junction, predicting leak probability from IoT
// reading deltas.
type Profile struct {
	technique Technique
	model     *mlearn.MultiOutput
	junctions []int // label column → node index
	nodeCount int
}

// TrainProfile fits the profile on a Phase-I dataset (Algorithm 1).
// nodeCount is the network's |V|; predictions are indexed by node with
// zero probability at fixed-grade nodes (they cannot leak). It is
// shorthand for TrainProfileContext with context.Background().
func TrainProfile(ds *dataset.Dataset, nodeCount int, cfg ProfileConfig) (*Profile, error) {
	return TrainProfileContext(context.Background(), ds, nodeCount, cfg)
}

// TrainProfileContext is TrainProfile with cancellation: ctx is checked
// between per-junction classifier dispatches, in-flight fits finish, no
// profile is returned, and the error wraps ctx.Err().
func TrainProfileContext(ctx context.Context, ds *dataset.Dataset, nodeCount int, cfg ProfileConfig) (*Profile, error) {
	if cfg.Technique == "" {
		cfg.Technique = TechniqueHybridRSL
	}
	if len(ds.Samples) == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}
	if len(ds.Junctions) == 0 {
		return nil, fmt.Errorf("core: dataset has no junction columns")
	}
	for _, nodeIdx := range ds.Junctions {
		if nodeIdx < 0 || nodeIdx >= nodeCount {
			return nil, fmt.Errorf("core: junction node %d outside node count %d", nodeIdx, nodeCount)
		}
	}
	if _, err := ParseTechnique(string(cfg.Technique)); err != nil {
		return nil, err
	}
	mo := mlearn.NewMultiOutput(cfg.Technique.factory(), cfg.Seed)
	if err := mo.FitContext(ctx, ds.X(), ds.Y()); err != nil {
		return nil, fmt.Errorf("core: profile training: %w", err)
	}
	return &Profile{
		technique: cfg.Technique,
		model:     mo,
		junctions: append([]int(nil), ds.Junctions...),
		nodeCount: nodeCount,
	}, nil
}

// Technique returns the technique the profile was trained with.
func (p *Profile) Technique() Technique { return p.technique }

// PredictProba returns per-node leak probabilities P = {p_v(1)} for one
// observation's features. Fixed-grade nodes get probability 0.
func (p *Profile) PredictProba(features []float64) ([]float64, error) {
	cols, err := p.model.PredictProba(features)
	if err != nil {
		return nil, err
	}
	out := make([]float64, p.nodeCount)
	for col, nodeIdx := range p.junctions {
		out[nodeIdx] = cols[col]
	}
	return out, nil
}

// Predict returns the per-node leak set S (0/1 per node).
func (p *Profile) Predict(features []float64) ([]int, error) {
	proba, err := p.PredictProba(features)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(proba))
	for v, pv := range proba {
		if pv > 0.5 {
			out[v] = 1
		}
	}
	return out, nil
}
