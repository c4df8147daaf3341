package mlearn

import (
	"bytes"
	"runtime"
	"testing"
)

// TestPlanBankMatchesPerColumnFits pins the shared fit plan to the
// stand-alone path for every registered technique: a bank fitted by
// MultiOutput (one plan, read concurrently by several workers) must save
// the same bytes as per-column NewByName+Fit (a private plan each)
// assembled with AssembleMultiOutput.
func TestPlanBankMatchesPerColumnFits(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	x, y := bankData(43, 120, 11, 6)
	const seed = 19
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			factory := func(s int64) Classifier {
				c, err := NewByName(name, s)
				if err != nil {
					t.Fatal(err)
				}
				return c
			}
			bank := NewMultiOutput(factory, seed)
			if err := bank.Fit(x, y); err != nil {
				t.Fatalf("bank Fit: %v", err)
			}

			models := make([]Classifier, len(y[0]))
			for v := range models {
				col := make([]int, len(y))
				for i := range y {
					col[i] = y[i][v]
				}
				models[v] = factory(seed + int64(v)*31337)
				if err := models[v].Fit(x, col); err != nil {
					t.Fatalf("column %d Fit: %v", v, err)
				}
			}
			assembled, err := AssembleMultiOutput(seed, models)
			if err != nil {
				t.Fatal(err)
			}

			var got, want bytes.Buffer
			if err := bank.Save(&got); err != nil {
				t.Fatal(err)
			}
			if err := assembled.Save(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("bank on a shared plan saves %d bytes that differ from the %d of per-column fits",
					got.Len(), want.Len())
			}
		})
	}
}
