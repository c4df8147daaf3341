package mlearn

import (
	"fmt"
	"math"
)

// HybridConfig configures the HybridRSL stack.
type HybridConfig struct {
	// RF configures the random-forest leg (Seed is derived).
	RF RFConfig

	// SVM configures the SVM leg (Seed is derived).
	SVM SVMConfig

	// Meta configures the logistic fusion layer.
	Meta LogisticConfig

	// CrossFitMeta trains the fusion layer on out-of-sample base-learner
	// probabilities (RF out-of-bag + SVM 2-fold cross-fitting) instead of
	// the default in-sample ones (the paper's literal Fig-4 workflow).
	// In-sample is the default because it matches the calibration of the
	// deployed full models — the fusion threshold is applied to full-model
	// probabilities at prediction time, and out-of-sample meta-features
	// are systematically softer, which makes the stack over-predict.
	CrossFitMeta bool

	// Seed drives fold assignment and the base learners.
	Seed int64
}

// HybridRSL is the paper's hybrid classifier: a Random forest and an Svm
// trained on the same data, fused through Logistic regression over their
// predicted probabilities (Fig. 4). RF and SVM stay robust as sensor
// coverage shrinks; the logistic fusion has low variance and resists
// overfitting.
type HybridRSL struct {
	cfg    HybridConfig
	rf     *RandomForest
	svm    *SVM
	meta   *LogisticRegression
	fitted bool
}

var _ Classifier = (*HybridRSL)(nil)

// NewHybridRSL creates an unfitted hybrid stack.
func NewHybridRSL(cfg HybridConfig) *HybridRSL {
	return &HybridRSL{cfg: cfg}
}

// Fit trains both legs, builds the meta-features, and fits the logistic
// fusion layer.
func (m *HybridRSL) Fit(x [][]float64, y []int) error {
	return m.fitOn(newFitPlan(x), y)
}

// fitOn hands the plan to both legs, so a bank bins and standardizes X
// once for all of its RF and SVM fits.
func (m *HybridRSL) fitOn(p *fitPlan, y []int) error {
	x := p.x
	if _, err := validateXY(x, y); err != nil {
		return err
	}
	n := len(x)

	// RF leg: OOB probabilities double as meta-features.
	rfCfg := m.cfg.RF
	rfCfg.Seed = m.cfg.Seed + 101
	m.rf = NewRandomForest(rfCfg)
	if err := m.rf.fitOn(p, y); err != nil {
		return fmt.Errorf("hybrid-rsl: rf leg: %w", err)
	}

	// SVM leg: 2-fold cross-fitted probabilities.
	svmProba := make([]float64, n)
	crossFit := m.cfg.CrossFitMeta && n >= 8 && hasBothClassesInFolds(y)
	if crossFit {
		for fold := 0; fold < 2; fold++ {
			var trX [][]float64
			var trY []int
			var teIdx []int
			for i := 0; i < n; i++ {
				if i%2 == fold {
					teIdx = append(teIdx, i)
				} else {
					trX = append(trX, x[i])
					trY = append(trY, y[i])
				}
			}
			cfg := m.cfg.SVM
			cfg.Seed = m.cfg.Seed + int64(211+fold)
			leg := NewSVM(cfg)
			if err := leg.Fit(trX, trY); err != nil {
				return fmt.Errorf("hybrid-rsl: svm fold %d: %w", fold, err)
			}
			for _, i := range teIdx {
				svmProba[i] = leg.PredictProba(x[i])
			}
		}
	}

	svmCfg := m.cfg.SVM
	svmCfg.Seed = m.cfg.Seed + 307
	m.svm = NewSVM(svmCfg)
	if err := m.svm.fitOn(p, y); err != nil {
		return fmt.Errorf("hybrid-rsl: svm leg: %w", err)
	}
	if !crossFit {
		for i := range svmProba {
			svmProba[i] = m.svm.PredictProba(x[i])
		}
	}

	meta := make([][]float64, n)
	for i := 0; i < n; i++ {
		rfP := m.rf.PredictProba(x[i])
		if m.cfg.CrossFitMeta {
			if p, ok := m.rf.OOBProba(i); ok {
				rfP = p
			}
		}
		meta[i] = metaFeatures(rfP, svmProba[i])
	}
	m.meta = NewLogisticRegression(m.cfg.Meta)
	if err := m.meta.Fit(meta, y); err != nil {
		return fmt.Errorf("hybrid-rsl: meta layer: %w", err)
	}
	m.fitted = true
	return nil
}

// hasBothClassesInFolds reports whether both parity folds contain both
// classes, the precondition for 2-fold cross fitting.
func hasBothClassesInFolds(y []int) bool {
	var count [2][2]int // [fold][class]
	for i, v := range y {
		count[i%2][v]++
	}
	for fold := 0; fold < 2; fold++ {
		if count[fold][0] == 0 || count[fold][1] == 0 {
			return false
		}
	}
	return true
}

// metaFeatures maps the two legs' probabilities into the fusion layer's
// feature space: raw probabilities plus clipped log-odds. The logit
// features let the logistic layer implement a calibrated opinion pool; the
// raw probabilities preserve threshold information.
func metaFeatures(rfP, svmP float64) []float64 {
	return []float64{rfP, svmP, clippedLogit(rfP), clippedLogit(svmP)}
}

func clippedLogit(p float64) float64 {
	const eps = 1e-3
	if p < eps {
		p = eps
	}
	if p > 1-eps {
		p = 1 - eps
	}
	return math.Log(p / (1 - p))
}

// PredictProba fuses the two legs through the logistic layer.
// Non-finite features are treated as 0 (see Classifier).
func (m *HybridRSL) PredictProba(x []float64) float64 {
	if !m.fitted {
		return 0
	}
	x = cleanFeatures(x)
	return m.meta.PredictProba(metaFeatures(m.rf.PredictProba(x), m.svm.PredictProba(x)))
}
