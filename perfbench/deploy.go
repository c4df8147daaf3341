package main

import (
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"github.com/aquascale/aquascale"
)

// The deployment every workload uses: the aquatrain/aquad defaults.
const (
	deploySeed = 1  // placement seed (-seed); k-medoids draws from deploySeed+3
	iotPct     = 30 // -iot
	technique  = aquascale.TechniqueHybridRSL
)

var leakCfg = aquascale.LeakGeneratorConfig{MinEvents: 1, MaxEvents: 5}

// trainingConfig is aquatrain's factory configuration; aquad builds its
// factory with the sensor noise alone.
var trainingConfig = aquascale.DatasetConfig{Noise: aquascale.DefaultSensorNoise, Leaks: leakCfg}

// deployment is a network with its placed sensors and data factory.
type deployment struct {
	net     *aquascale.Network
	factory *aquascale.Factory
}

// buildDeployment runs the set-up sequence both CLIs share: build the
// network, run the 6-hour baseline EPS, place k-medoids sensors and build
// the factory. Each step is a span under parent when traced.
func buildDeployment(build func() *aquascale.Network, cfg aquascale.DatasetConfig, tr *tracer, parent int) (*deployment, error) {
	id := tr.begin("network", "network.build", parent, 0)
	net := build()
	tr.end(id)

	id = tr.begin("hydraulic", "hydraulic.eps", parent, 0)
	baseline, err := aquascale.RunEPS(net, aquascale.EPSOptions{Duration: 6 * time.Hour, Step: time.Hour}, nil)
	tr.end(id)
	if err != nil {
		return nil, err
	}

	id = tr.begin("sensor", "sensor.kmedoids", parent, 0)
	placer, err := aquascale.NewPlacer(net, baseline)
	if err != nil {
		return nil, err
	}
	sensors, err := placer.KMedoids(placer.CountForPercent(iotPct), rand.New(rand.NewSource(deploySeed+3)))
	tr.end(id)
	if err != nil {
		return nil, err
	}

	id = tr.begin("dataset", "dataset.factory", parent, 0)
	factory, err := aquascale.NewFactory(net, sensors, cfg)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	return &deployment{net: net, factory: factory}, nil
}

// setupLayerMetrics reports the set-up spans every workload records.
func setupLayerMetrics(rc *runCtx, tr *tracer) error {
	for _, name := range []string{"network.build", "hydraulic.eps", "sensor.kmedoids", "dataset.factory"} {
		v, err := spanP50(tr, name, time.Millisecond)
		if err != nil {
			return err
		}
		rc.rep.set(name+"_ms", v)
	}
	return nil
}

// heldOut is one held-out test sample with its ground truth.
type heldOut struct {
	Features []float64
	Labels   []int // per node
}

// genHeldOut draws the held-out set exactly as aquatrain does: scenarios
// from seed+101, sensor noise from seed+103, one reused session.
func genHeldOut(d *deployment, n int, seed int64) ([]heldOut, error) {
	gen, err := aquascale.NewLeakGenerator(d.net, leakCfg, rand.New(rand.NewSource(seed+101)))
	if err != nil {
		return nil, err
	}
	evalRng := rand.New(rand.NewSource(seed + 103))
	sess, err := d.factory.NewSession()
	if err != nil {
		return nil, err
	}
	out := make([]heldOut, 0, n)
	for i := 0; i < n; i++ {
		sc := gen.Next()
		s, err := sess.FromScenario(sc, evalRng)
		if err != nil {
			return nil, fmt.Errorf("held-out scenario %d: %w", i, err)
		}
		out = append(out, heldOut{Features: s.Features, Labels: sc.Labels(len(d.net.Nodes))})
	}
	return out, nil
}

func writeGob(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(f).Encode(v); err != nil {
		f.Close()
		return fmt.Errorf("encode %s: %w", filepath.Base(path), err)
	}
	return f.Close()
}

func readGob(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := gob.NewDecoder(f).Decode(v); err != nil {
		return fmt.Errorf("decode %s: %w", filepath.Base(path), err)
	}
	return nil
}

// sameBits reports whether a and b hold bit-identical float64s.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// nodeSet turns a list of leaking node indices into a 0/1 vector.
func nodeSet(nodes []int, n int) []int {
	out := make([]int, n)
	for _, v := range nodes {
		if v >= 0 && v < n {
			out[v] = 1
		}
	}
	return out
}

// thresholdSet is the leak set S of a probability vector (p > 0.5), as
// Profile.Predict thresholds it.
func thresholdSet(proba []float64) []int {
	out := make([]int, len(proba))
	for v, p := range proba {
		if p > 0.5 {
			out[v] = 1
		}
	}
	return out
}

// split divides a traced run's window into its three segments: untraced,
// traced, and the layer decomposition.
func split(d time.Duration) time.Duration { return d / 3 }
