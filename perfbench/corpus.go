package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/aquascale/aquascale"
	"github.com/aquascale/aquascale/internal/dataset"
)

// corpusInputs are corpus-wssc's reference values: a digest of the
// in-memory Factory.Generate at the corpus seed, and a held-out set.
type corpusInputs struct {
	Samples int
	Digest  uint64
	Test    []heldOut
}

// The corpus is scored by training hamTechnique on its first hamShards
// read-back shards: the cheapest technique on a slice of the corpus,
// because on WSSC any technique over the full corpus would take far
// longer than generating it.
const (
	hamTechnique = aquascale.TechniqueLinear
	hamShards    = 2
)

// sampleDigest hashes samples in order: feature bits, then labels.
type sampleDigest struct {
	h   hash.Hash64
	n   int
	buf [8]byte
}

func newSampleDigest() *sampleDigest { return &sampleDigest{h: fnv.New64a()} }

func (d *sampleDigest) add(features []float64, labels []int) {
	for _, f := range features {
		binary.LittleEndian.PutUint64(d.buf[:], math.Float64bits(f))
		d.h.Write(d.buf[:])
	}
	for _, l := range labels {
		d.h.Write([]byte{byte(l)})
	}
	d.n++
}

func genCorpus(sz sizes, seed int64, dir string) error {
	d, err := buildDeployment(aquascale.BuildWSSCSubnet, trainingConfig, nil, -1)
	if err != nil {
		return err
	}
	ds, err := d.factory.Generate(sz.corpusScenarios, rand.New(rand.NewSource(seed+11)))
	if err != nil {
		return err
	}
	dg := newSampleDigest()
	for _, s := range ds.Samples {
		dg.add(s.Features, s.Labels)
	}
	test, err := genHeldOut(d, sz.testScenarios, seed)
	if err != nil {
		return err
	}
	return writeGob(filepath.Join(dir, "inputs.gob"), &corpusInputs{Samples: dg.n, Digest: dg.h.Sum64(), Test: test})
}

// corpusPass is one timed generate-and-read-back pass.
type corpusPass struct {
	dur             time.Duration
	genCPU, genWall time.Duration
	res             *aquascale.CorpusResult
}

// runCorpusPass is aquatrain -corpus-out's generation followed by the
// read side: OpenCorpus, the deployment match and a full Each, which
// verifies every shard's CRC before yielding its samples.
func runCorpusPass(rc *runCtx, d *deployment, dir string, tr *tracer, req int64) (*corpusPass, error) {
	ctx := context.Background()
	p := &corpusPass{}
	start := time.Now()
	root := tr.begin("benchmark", "corpus.pass", -1, req)

	id := tr.begin("dataset", "dataset.generate_corpus", root, req)
	cpu0, wall0 := cpuTime(), time.Now()
	res, err := d.factory.GenerateCorpus(ctx, rc.sz.corpusScenarios, rc.seed+11, dir,
		aquascale.CorpusOptions{ShardSamples: rc.sz.shardSamples})
	p.genCPU, p.genWall = cpuTime()-cpu0, time.Since(wall0)
	tr.end(id)
	if err != nil {
		return nil, err
	}

	id = tr.begin("dataset", "dataset.read", root, req)
	n, err := readCorpus(d, dir, nil)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	tr.end(root)
	p.dur = time.Since(start)
	if n != res.Samples {
		rc.rep.mismatch("read back %d samples, GenerateCorpus wrote %d", n, res.Samples)
	}
	p.res = res
	return p, nil
}

// readCorpus opens dir, checks it belongs to the deployment and iterates
// every sample, feeding dg when non-nil. It returns the sample count.
func readCorpus(d *deployment, dir string, dg *sampleDigest) (int, error) {
	r, err := aquascale.OpenCorpus(dir)
	if err != nil {
		return 0, err
	}
	if err := r.Match(d.factory); err != nil {
		return 0, err
	}
	n := 0
	var labels []int
	err = r.Each(context.Background(), func(s *aquascale.CorpusSample) error {
		n++
		if dg != nil {
			labels = s.Labels(labels)
			dg.add(s.Features, labels)
		}
		return nil
	})
	return n, err
}

// shardHashes verifies every shard in dir and returns its SHA-256 by name.
func shardHashes(dir string) (map[string][32]byte, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "shard-*.aqsc"))
	if err != nil {
		return nil, err
	}
	out := make(map[string][32]byte, len(paths))
	for _, p := range paths {
		if _, err := aquascale.VerifyShard(p); err != nil {
			return nil, fmt.Errorf("shard %s: %w", filepath.Base(p), err)
		}
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		h := sha256.New()
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return nil, err
		}
		var sum [32]byte
		copy(sum[:], h.Sum(nil))
		out[filepath.Base(p)] = sum
	}
	return out, nil
}

// sameShards compares two shard sets and describes the first difference.
func sameShards(a, b map[string][32]byte) (bool, string) {
	if len(a) != len(b) {
		return false, fmt.Sprintf("%d shards vs %d", len(a), len(b))
	}
	names := make([]string, 0, len(a))
	for n := range a {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if a[n] != b[n] {
			return false, n
		}
	}
	return true, ""
}

// corpusHamming trains hamTechnique on the read-back shards in dir and
// scores it on the held-out set.
func corpusHamming(rc *runCtx, d *deployment, dir string, in *corpusInputs) (float64, error) {
	ds := &aquascale.Dataset{Junctions: d.factory.Junctions()}
	shards, err := filepath.Glob(filepath.Join(dir, "shard-*.aqsc"))
	if err != nil {
		return 0, err
	}
	for _, shard := range shards {
		_, err := dataset.ReadShard(shard, func(s *aquascale.CorpusSample) error {
			ds.Samples = append(ds.Samples, aquascale.DataSample{
				Features: append([]float64(nil), s.Features...),
				Labels:   s.Labels(nil),
			})
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	prof, err := aquascale.TrainProfile(ds, len(d.net.Nodes), aquascale.ProfileConfig{Technique: hamTechnique, Seed: rc.seed + 77})
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, t := range in.Test {
		pred, err := prof.Predict(t.Features)
		if err != nil {
			return 0, err
		}
		total += aquascale.HammingScore(pred, t.Labels)
	}
	return total / float64(len(in.Test)), nil
}

func runCorpus(rc *runCtx) error {
	var in corpusInputs
	if err := readGob(filepath.Join(rc.dir, "inputs.gob"), &in); err != nil {
		return err
	}
	d, err := setupDeployment(rc, aquascale.BuildWSSCSubnet)
	if err != nil {
		return err
	}

	var first map[string][32]byte
	var last *corpusPass
	// The first pass's first shards are kept to score the corpus after
	// the timed window, so that training stays out of the peak RSS.
	keep := filepath.Join(rc.dir, "scored")
	if err := os.MkdirAll(keep, 0o755); err != nil {
		return err
	}
	pass := 0
	// passes runs corpus passes until dur is spent (at least one), each
	// into a fresh directory, and returns their times in ms. The checks
	// after each pass are untimed.
	passes := func(dur time.Duration, tr *tracer) ([]float64, error) {
		var times []float64
		start := time.Now()
		for n := 0; n == 0 || time.Since(start) < dur; n++ {
			dir := filepath.Join(rc.dir, fmt.Sprintf("corpus-%d", pass))
			pass++
			rc.rep.attempted++
			runtime.GC() // each pass starts from a collected heap, as a fresh aquatrain does
			p, err := runCorpusPass(rc, d, dir, tr, int64(n))
			if err != nil {
				return nil, err
			}
			times = append(times, float64(p.dur)/float64(time.Millisecond))
			hashes, err := shardHashes(dir)
			if err != nil {
				rc.rep.mismatch("%v", err)
			}
			if first == nil {
				first = hashes
				dg := newSampleDigest()
				if _, err := readCorpus(d, dir, dg); err != nil {
					return nil, err
				}
				if dg.n != in.Samples || dg.h.Sum64() != in.Digest {
					rc.rep.mismatch("read-back samples differ from in-memory Generate at the same seed")
				}
				for i := 0; i < hamShards && i < len(hashes); i++ {
					name := dataset.ShardFileName(i)
					if err := os.Rename(filepath.Join(dir, name), filepath.Join(keep, name)); err != nil {
						return nil, err
					}
				}
			} else if ok, where := sameShards(first, hashes); !ok {
				rc.rep.mismatch("pass %d wrote different shard bytes (%s)", pass, where)
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
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
		setPassMetrics(rc, times, rc.sz.corpusScenarios)
		hamming, err := corpusHamming(rc, d, keep, &in)
		if err != nil {
			return err
		}
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
	v, err := spanP50(rc.tr, "dataset.read", time.Millisecond)
	if err != nil {
		return err
	}
	rc.rep.set("dataset.read_ms", v)
	rc.rep.set("dataset.pool_util", poolUtil(last.genCPU, last.genWall))
	rc.rep.set("dataset.mib_written", float64(last.res.Bytes)/(1<<20))
	rc.rep.set("dataset.bytes_per_shard", float64(last.res.Bytes)/float64(last.res.ShardsWritten))
	return composeCorpus(rc, d, first)
}

// composeCorpus rebuilds the corpus one public call at a time on one
// goroutine — a hydraulic solve, then the session's sample build (which
// solves again and extracts features), then a ShardWriter per shard — so
// each layer gets its own spans. The composed shards must be
// byte-identical to GenerateCorpus's.
func composeCorpus(rc *runCtx, d *deployment, want map[string][32]byte) error {
	tr := rc.tr
	plan, err := d.factory.PlanCorpus(rc.sz.corpusScenarios, rc.seed+11, aquascale.CorpusOptions{ShardSamples: rc.sz.shardSamples})
	if err != nil {
		return err
	}
	// Scenarios and per-scenario noise seeds are drawn up front from the
	// plan seed, in GenerateCorpus's order.
	rng := rand.New(rand.NewSource(plan.Seed))
	gen, err := aquascale.NewLeakGenerator(d.net, leakCfg, rng)
	if err != nil {
		return err
	}
	scenarios := gen.Batch(plan.Count)
	seeds := make([]int64, plan.Count)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	sess, err := d.factory.NewSession()
	if err != nil {
		return err
	}
	solver, err := aquascale.NewSolver(d.net, aquascale.SolverOptions{})
	if err != nil {
		return err
	}
	// The factory reads sensors one default 15-minute slot after onset.
	readAt := d.factory.BaseTime() + 15*time.Minute
	dir := filepath.Join(rc.dir, "composed")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	newton := 0
	for si := 0; si < plan.ShardCount; si++ {
		first, n := plan.ShardRange(si)
		samples := make([]aquascale.DataSample, n)
		for i := 0; i < n; i++ {
			sc := scenarios[first+i]
			rc.rep.attempted++
			id := tr.begin("hydraulic", "hydraulic.solve", -1, int64(first+i))
			res, _, err := solver.SolveSteadyRetry(readAt, sc.Emitters(), nil, aquascale.RetryPolicy{})
			tr.end(id)
			if err != nil {
				return fmt.Errorf("scenario %d: %w", first+i, err)
			}
			newton += res.Iterations
			id = tr.begin("dataset", "dataset.sample", -1, int64(first+i))
			samples[i], err = sess.FromScenario(sc, rand.New(rand.NewSource(seeds[first+i])))
			tr.end(id)
			if err != nil {
				return fmt.Errorf("scenario %d: %w", first+i, err)
			}
		}
		id := tr.begin("dataset", "dataset.shard_write", -1, int64(si))
		w, err := dataset.NewShardWriter(filepath.Join(dir, dataset.ShardFileName(si)), plan.ShardMeta(si))
		if err != nil {
			return err
		}
		for i, s := range samples {
			if err := w.Append(first+i, s.Retries, s.Features, s.Labels); err != nil {
				w.Abort()
				return err
			}
		}
		err = w.Close()
		tr.end(id)
		if err != nil {
			return err
		}
	}
	got, err := shardHashes(dir)
	if err != nil {
		return err
	}
	if ok, where := sameShards(want, got); !ok {
		rc.rep.mismatch("composed shards differ from GenerateCorpus (%s)", where)
	}

	p50 := make(map[string]float64)
	for _, name := range []string{"hydraulic.solve", "dataset.sample", "dataset.shard_write"} {
		v, err := spanP50(tr, name, time.Millisecond)
		if err != nil {
			return err
		}
		p50[name] = v
		rc.rep.set(name+"_ms", v)
	}
	rc.rep.set("hydraulic.newton_iters", float64(newton))
	rc.rep.set("dataset.features_ms", p50["dataset.sample"]-p50["hydraulic.solve"])
	sum := func(name string) float64 {
		t := 0.0
		for _, v := range inUnit(tr.durations(name), time.Millisecond) {
			t += v
		}
		return t
	}
	built := sum("dataset.sample") + sum("dataset.shard_write")
	rc.rep.set("dataset.gen_share", built/(built+rc.rep.metrics["dataset.read_ms"]))
	return nil
}
