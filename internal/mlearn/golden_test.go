package mlearn

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"testing"
)

// bankData builds a small multi-output problem shaped like Phase-I leak
// data: n rows of d IoT deltas, a handful of label columns with few
// positives each, a constant (silent) sensor column, and quantized
// columns whose ties exercise the quantile binner's deduplication.
func bankData(seed int64, n, d, outputs int) ([][]float64, [][]int) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([][]int, n)
	for i := range x {
		row := make([]float64, d)
		for f := range row {
			switch {
			case f == 0:
				row[f] = 3.5 // a sensor that never moves
			case f%4 == 1:
				row[f] = float64(rng.Intn(5)) // heavy ties
			default:
				row[f] = rng.NormFloat64() * float64(1+f%3)
			}
		}
		labels := make([]int, outputs)
		for v := range labels {
			// Node v leaks when its two nearest sensors both drop.
			a, b := row[(2*v+2)%d], row[(2*v+3)%d]
			if a+b+0.3*rng.NormFloat64() > 2.6 {
				labels[v] = 1
			}
		}
		x[i] = row
		y[i] = labels
	}
	return x, y
}

// bankDigest fits a MultiOutput bank for a registered technique and
// returns the sha256 of its saved bytes.
func bankDigest(t *testing.T, name string, x [][]float64, y [][]int, seed int64) string {
	t.Helper()
	mo := NewMultiOutput(func(s int64) Classifier {
		c, err := NewByName(name, s)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}, seed)
	if err := mo.Fit(x, y); err != nil {
		t.Fatalf("%s: Fit: %v", name, err)
	}
	var buf bytes.Buffer
	if err := mo.Save(&buf); err != nil {
		t.Fatalf("%s: Save: %v", name, err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// goldenChildEnv marks the re-executed test binary that computes the
// golden digests. gob numbers wire types process-wide in first-use
// order, so Save bytes depend on what the process encoded before; a
// fresh process encoding in a fixed order makes them reproducible.
const goldenChildEnv = "MLEARN_GOLDEN_DIGEST_CHILD"

// TestGoldenBankDigests pins the saved bytes of the techniques whose
// training arithmetic must never move: the tree learners (rf, gb) and
// the standardized linear learners (linear, logistic). The digests were
// recorded from the per-fit binner and scaler implementation, so a fit
// plan shared across a bank is proven bit-identical to it rather than
// only to itself. svm and hybrid-rsl are not pinned: their Platt step
// is a converged solve whose bits are allowed to change with it.
//
// The digests are amd64 bits; architectures whose compilers fuse
// multiply-adds produce different (equally valid) floats.
func TestGoldenBankDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded for amd64, not %s", runtime.GOARCH)
	}
	if os.Getenv(goldenChildEnv) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestGoldenBankDigests$", "-test.count=1")
		cmd.Env = append(os.Environ(), goldenChildEnv+"=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("golden digest process: %v\n%s", err, out)
		}
		return
	}
	want := []struct{ name, digest string }{
		{"gb", "a7cdebea68d9c3e2356e55b1f1d173fb813b5c625e9db0981baa301baa12010f"},
		{"linear", "21ceb72d8f4c8c94712e98f947cd02a8eecf3cbaae3c25f8ec5ccb9c7f3e1d20"},
		{"logistic", "ebabe0223a6d74998096ab8a680f32493e7c410556a984e9c932dd6c7ed4be87"},
		{"rf", "277f981f25df63bedf07cfbac25f2191cc0bd5a68521163d48bdecdce2f95cb6"},
	}
	x, y := bankData(41, 160, 13, 5)
	for _, w := range want {
		if got := bankDigest(t, w.name, x, y, 7); got != w.digest {
			t.Errorf("%s: Save digest %s, want %s", w.name, got, w.digest)
		}
	}
}
