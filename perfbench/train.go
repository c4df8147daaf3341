package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"github.com/aquascale/aquascale"
	"github.com/aquascale/aquascale/internal/core"
	"github.com/aquascale/aquascale/internal/mlearn"
)

// trainInputs is train-epanet's fixed held-out set.
type trainInputs struct {
	Test []heldOut
}

func genTrain(sz sizes, seed int64, dir string) error {
	d, err := buildDeployment(aquascale.BuildEPANet, trainingConfig, nil, -1)
	if err != nil {
		return err
	}
	test, err := genHeldOut(d, sz.testScenarios, seed)
	if err != nil {
		return err
	}
	return writeGob(filepath.Join(dir, "inputs.gob"), &trainInputs{Test: test})
}

// setupDeployment times building a deployment as the median of several
// repetitions and returns the last one built.
func setupDeployment(rc *runCtx, build func() *aquascale.Network) (*deployment, error) {
	var d *deployment
	setup, reps, err := medianSetup(rc.sz.setupReps, func() (func(), error) {
		root := rc.tr.begin("benchmark", "setup", -1, 0)
		var err error
		d, err = buildDeployment(build, trainingConfig, rc.tr, root)
		rc.tr.end(root)
		return nil, err
	})
	if err != nil {
		return nil, err
	}
	rc.rep.set("setup_s", setup.Seconds())
	rc.rep.note("set-up repetitions: %s ms", fmtList(reps))
	if rc.traced {
		if err := setupLayerMetrics(rc, rc.tr); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// trainPass is one timed Phase-I pass and what the checks need from it.
type trainPass struct {
	dur                 time.Duration
	trainCPU, trainWall time.Duration
	ds                  *aquascale.Dataset
	prof                *aquascale.Profile
	cp                  *core.CompiledProfile
	proba               [][]float64 // compiled probabilities of the scored held-out samples
	hamming             float64     // mean over the scored held-out samples
}

// runTrainPass is aquatrain's in-memory path: generate, train, compile,
// then score the first scoreScenarios held-out samples through the
// compiled profile.
func runTrainPass(rc *runCtx, d *deployment, in *trainInputs, tr *tracer, req int64) (*trainPass, error) {
	nodes := len(d.net.Nodes)
	p := &trainPass{}
	start := time.Now()
	root := tr.begin("benchmark", "train.pass", -1, req)

	id := tr.begin("dataset", "dataset.generate", root, req)
	ds, err := d.factory.Generate(rc.sz.trainSamples, rand.New(rand.NewSource(rc.seed+11)))
	tr.end(id)
	if err != nil {
		return nil, err
	}

	id = tr.begin("core", "core.train", root, req)
	cpu0, wall0 := cpuTime(), time.Now()
	prof, err := aquascale.TrainProfile(ds, nodes, aquascale.ProfileConfig{Technique: technique, Seed: rc.seed + 77})
	p.trainCPU, p.trainWall = cpuTime()-cpu0, time.Since(wall0)
	tr.end(id)
	if err != nil {
		return nil, err
	}

	id = tr.begin("core", "core.compile", root, req)
	cp, err := prof.Compile()
	tr.end(id)
	if err != nil {
		return nil, err
	}

	id = tr.begin("mlearn", "core.score", root, req)
	scored := in.Test[:rc.sz.scoreScenarios]
	total := 0.0
	p.proba = make([][]float64, len(scored))
	for i, t := range scored {
		out := make([]float64, cp.NodeCount())
		if err := cp.PredictProbaInto(t.Features, out); err != nil {
			return nil, err
		}
		p.proba[i] = out
		total += aquascale.HammingScore(thresholdSet(out), t.Labels)
	}
	tr.end(id)
	tr.end(root)
	p.dur = time.Since(start)
	p.ds, p.prof, p.cp, p.hamming = ds, prof, cp, total/float64(len(scored))
	return p, nil
}

// checkTrainPass applies the Phase-I gates, untimed: compiled equals
// pointer probabilities on the scored held-out samples,
// Save→LoadProfile→Save is byte-identical, and every pass trains the same
// bytes and score as the first. It returns the profile bytes.
func checkTrainPass(rc *runCtx, p *trainPass, in *trainInputs, first []byte, firstHamming float64, tr *tracer) ([]byte, error) {
	for i, out := range p.proba {
		ptr, err := p.prof.PredictProba(in.Test[i].Features)
		if err != nil {
			return nil, err
		}
		if !sameBits(ptr, out) {
			rc.rep.mismatch("compiled held-out probabilities differ from the pointer path (sample %d)", i)
		}
	}
	var saved bytes.Buffer
	id := tr.begin("core", "core.save", -1, 0)
	err := p.prof.Save(&saved)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("core", "core.load", -1, 0)
	loaded, err := aquascale.LoadProfile(bytes.NewReader(saved.Bytes()))
	tr.end(id)
	if err != nil {
		return nil, err
	}
	var again bytes.Buffer
	if err := loaded.Save(&again); err != nil {
		return nil, err
	}
	if !bytes.Equal(saved.Bytes(), again.Bytes()) {
		rc.rep.mismatch("Save→LoadProfile→Save changed the profile bytes")
	}
	if first != nil && !bytes.Equal(first, saved.Bytes()) {
		rc.rep.mismatch("a later pass trained different profile bytes at the same seed")
	}
	if first != nil && p.hamming != firstHamming {
		rc.rep.mismatch("a later pass scored %v, the first %v", p.hamming, firstHamming)
	}
	return saved.Bytes(), nil
}

func runTrain(rc *runCtx) error {
	var in trainInputs
	if err := readGob(filepath.Join(rc.dir, "inputs.gob"), &in); err != nil {
		return err
	}
	d, err := setupDeployment(rc, aquascale.BuildEPANet)
	if err != nil {
		return err
	}

	var profBytes []byte
	var passHamming, hamming float64
	var last *trainPass
	// passes runs Phase-I passes until dur is spent (at least one) and
	// returns their times in ms.
	passes := func(dur time.Duration, tr *tracer) ([]float64, error) {
		var times []float64
		start := time.Now()
		for n := 0; n == 0 || time.Since(start) < dur; n++ {
			rc.rep.attempted++
			runtime.GC() // each pass starts from a collected heap, as a fresh aquatrain does
			p, err := runTrainPass(rc, d, &in, tr, int64(n))
			if err != nil {
				return nil, err
			}
			times = append(times, float64(p.dur)/float64(time.Millisecond))
			b, err := checkTrainPass(rc, p, &in, profBytes, passHamming, tr)
			if err != nil {
				return nil, err
			}
			if profBytes == nil {
				profBytes, passHamming = b, p.hamming
				if hamming, err = heldOutHamming(rc, p, &in); err != nil {
					return nil, err
				}
			}
			last = p
		}
		return times, nil
	}

	if !rc.traced {
		times, err := passes(rc.seconds, nil)
		if err != nil {
			return err
		}
		rc.rep.set("peak_rss_mib", peakRSSMiB())
		setPassMetrics(rc, times, rc.sz.trainSamples)
		rc.rep.set("hamming", hamming)
		return nil
	}

	seg := split(rc.seconds)
	un, err := passes(seg, nil)
	if err != nil {
		return err
	}
	traced, err := passes(seg, rc.tr)
	if err != nil {
		return err
	}
	setOverhead(rc, traced, un)
	rc.rep.set("tail.p99_ms", percentile(un, 99))
	for _, name := range []string{"dataset.generate", "core.train", "core.compile", "core.score", "core.save", "core.load"} {
		v, err := spanP50(rc.tr, name, time.Millisecond)
		if err != nil {
			return err
		}
		rc.rep.set(name+"_ms", v)
	}
	rc.rep.set("core.train_share", rc.rep.metrics["core.train_ms"]/median(traced))
	rc.rep.set("mlearn.pool_util", poolUtil(last.trainCPU, last.trainWall))
	rc.rep.set("core.profile_bytes", float64(len(profBytes)))
	return fitNodes(rc, last, profBytes)
}

// heldOutHamming scores the whole held-out set through the compiled
// profile, checking each answer against the pointer path.
func heldOutHamming(rc *runCtx, p *trainPass, in *trainInputs) (float64, error) {
	total := 0.0
	out := make([]float64, p.cp.NodeCount())
	for i, t := range in.Test {
		if err := p.cp.PredictProbaInto(t.Features, out); err != nil {
			return 0, err
		}
		ptr, err := p.prof.PredictProba(t.Features)
		if err != nil {
			return 0, err
		}
		if !sameBits(ptr, out) {
			rc.rep.mismatch("compiled held-out probabilities differ from the pointer path (sample %d)", i)
		}
		total += aquascale.HammingScore(thresholdSet(out), t.Labels)
	}
	return total / float64(len(in.Test)), nil
}

// setPassMetrics reports pass-based end-to-end metrics: the median pass,
// and throughput as scenarios per median pass.
func setPassMetrics(rc *runCtx, times []float64, scenarios int) {
	p50 := median(times)
	rc.rep.set("p50_ms", p50)
	rc.rep.set("throughput_per_s", float64(scenarios)/(p50/1e3))
	rc.rep.note("%d passes, %d scenarios each: %s ms", len(times), scenarios, fmtList(times))
}

// fitNodes refits the last pass's bank one junction at a time with the
// same per-column seeds MultiOutput.Fit derives, timing each fit, then
// assembles the bank and checks it saves to the bytes TrainProfile's
// profile ends with (the profile is a header followed by the bank).
func fitNodes(rc *runCtx, p *trainPass, profBytes []byte) error {
	tr := rc.tr
	x, y := p.ds.X(), p.ds.Y()
	cols := len(p.ds.Junctions)
	models := make([]mlearn.Classifier, cols)
	for v := 0; v < cols; v++ {
		col := make([]int, len(y))
		for i := range y {
			col[i] = y[i][v]
		}
		id := tr.begin("mlearn", "mlearn.fit_node", -1, int64(v))
		c, err := mlearn.NewByName(string(technique), rc.seed+77+int64(v)*31337)
		if err == nil {
			err = c.Fit(x, col)
		}
		tr.end(id)
		if err != nil {
			return fmt.Errorf("fit node %d: %w", v, err)
		}
		models[v] = c
	}
	rc.rep.attempted++
	bank, err := mlearn.AssembleMultiOutput(rc.seed+77, models)
	if err != nil {
		return err
	}
	var b bytes.Buffer
	if err := bank.Save(&b); err != nil {
		return err
	}
	if !bytes.HasSuffix(profBytes, b.Bytes()) {
		rc.rep.mismatch("per-node fits assembled to a bank that differs from TrainProfile's")
	}
	fits := inUnit(tr.durations("mlearn.fit_node"), time.Millisecond)
	rc.rep.set("mlearn.fit_node_ms_p50", median(fits))
	rc.rep.set("mlearn.fit_node_ms_max", percentile(fits, 100))
	rc.rep.set("mlearn.fit_nodes", float64(len(fits)))
	return nil
}
