package core

import (
	"fmt"
	"strings"

	"github.com/aquascale/aquascale/internal/mlearn"
)

// Technique identifies a Phase-I learning technique from the mlearn
// plug-and-play registry. The zero value selects the default
// (TechniqueHybridRSL, the paper's best performer).
//
// Technique is a string kind, so JSON encodes it as a plain string; it
// also implements encoding.TextMarshaler/TextUnmarshaler, which makes
// decoding validate the name (flag.TextVar gives CLI flags the same
// validation for free).
type Technique string

// The built-in techniques, matching the registered classifier names
// (TestTechniquesMatchRegistry pins the two lists together).
const (
	TechniqueLinear    Technique = "linear"
	TechniqueLogistic  Technique = "logistic"
	TechniqueGB        Technique = "gb"
	TechniqueRF        Technique = "rf"
	TechniqueSVM       Technique = "svm"
	TechniqueHybridRSL Technique = "hybrid-rsl"
)

// Techniques lists every registered technique in sorted name order —
// the same set mlearn.Names reports, including any classifier registered
// beyond the built-in constants.
func Techniques() []Technique {
	names := mlearn.Names()
	out := make([]Technique, len(names))
	for i, n := range names {
		out[i] = Technique(n)
	}
	return out
}

// String returns the registry name.
func (t Technique) String() string { return string(t) }

// ParseTechnique resolves a classifier name against the mlearn registry.
// The empty string selects TechniqueHybridRSL (the package default); an
// unknown name errors, listing the valid names.
func ParseTechnique(s string) (Technique, error) {
	if s == "" {
		return TechniqueHybridRSL, nil
	}
	if _, err := mlearn.NewByName(s, 0); err != nil {
		names := mlearn.Names()
		return "", fmt.Errorf("core: unknown technique %q (valid: %s)", s, strings.Join(names, ", "))
	}
	return Technique(s), nil
}

// factory returns the registry factory of a technique that has passed
// ParseTechnique.
func (t Technique) factory() mlearn.Factory {
	return func(seed int64) mlearn.Classifier {
		c, err := mlearn.NewByName(string(t), seed)
		if err != nil {
			panic(err) // unreachable: the name was validated
		}
		return c
	}
}

// MarshalText implements encoding.TextMarshaler.
func (t Technique) MarshalText() ([]byte, error) { return []byte(t), nil }

// UnmarshalText implements encoding.TextUnmarshaler, validating the name
// against the registry — json.Unmarshal and flag.TextVar both reject
// unknown techniques with the ParseTechnique error.
func (t *Technique) UnmarshalText(text []byte) error {
	parsed, err := ParseTechnique(string(text))
	if err != nil {
		return err
	}
	*t = parsed
	return nil
}
