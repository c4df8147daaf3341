// Command perfbench is the repository benchmark. It runs one workload per
// invocation against the library's public entry points, checks every
// output against an oracle computed while the inputs were generated, and
// prints every metric by name with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run is traced (a span around every public call) and the metrics are the
// per-layer ones. See README.md for the workloads and the metric map.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload train-epanet --seed 3 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"github.com/aquascale/aquascale"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them in an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"peak_rss_mib", "MiB"},
	{"hamming", "score"},
}

// perLayer are the traced run's metrics. Each has a home workload whose
// stream exercises it (README.md); a traced run of another workload
// measures it with a tiny-size probe of the home workload.
var perLayer = []metricDef{
	// observe-iot ladder: one request stream, each rung one layer deeper.
	{"serve.http_rtt_us_p50", "us"},
	{"serve.http_rtt_us_p99", "us"},
	{"serve.handler_us", "us"},
	{"serve.submit_wait_us", "us"},
	{"core.localize_us", "us"},
	{"mlearn.predict_us", "us"},
	{"serve.socket_self_us", "us"},
	{"serve.http_self_us", "us"},
	{"serve.admission_self_us", "us"},
	{"core.self_us", "us"},
	{"serve.allocs_per_req", "count"},
	{"serve.bytes_per_req", "B"},
	{"serve.gc_cycles", "count"},
	{"serve.batched_share", "ratio"},
	{"serve.batch_size_mean", "count"},
	// observe-burst: queueing, batching and fusion.
	{"core.localize_fused_us", "us"},
	{"fusion.self_us", "us"},
	{"social.cliques_us", "us"},
	{"serve.submit_us", "us"},
	{"serve.job_wait_us", "us"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.queue_wait_ms_p99", "ms"},
	{"serve.batched_jobs", "count"},
	{"core.baseline_us", "us"},
	{"loadgen.late_ms_p50", "ms"},
	{"loadgen.late_ms_max", "ms"},
	// train-epanet: Phase I.
	{"dataset.generate_ms", "ms"},
	{"core.train_ms", "ms"},
	{"core.train_share", "ratio"},
	{"mlearn.pool_util", "ratio"},
	{"mlearn.fit_node_ms_p50", "ms"},
	{"mlearn.fit_node_ms_max", "ms"},
	{"mlearn.fit_nodes", "count"},
	{"core.compile_ms", "ms"},
	{"core.score_ms", "ms"},
	{"core.save_ms", "ms"},
	{"core.load_ms", "ms"},
	{"core.profile_bytes", "B"},
	// corpus-wssc: out-of-core generation and read-back.
	{"hydraulic.solve_ms", "ms"},
	{"hydraulic.newton_iters", "count"},
	{"dataset.sample_ms", "ms"},
	{"dataset.features_ms", "ms"},
	{"dataset.shard_write_ms", "ms"},
	{"dataset.mib_written", "MiB"},
	{"dataset.bytes_per_shard", "B"},
	{"dataset.read_ms", "ms"},
	{"dataset.pool_util", "ratio"},
	{"dataset.gen_share", "ratio"},
	// Set-up layers, measured by every workload.
	{"network.build_ms", "ms"},
	{"hydraulic.eps_ms", "ms"},
	{"sensor.kmedoids_ms", "ms"},
	{"dataset.factory_ms", "ms"},
	{"serve.new_ms", "ms"},
	// The untraced segment's p99 (pass workloads: its slowest pass). On a
	// shared host it moved 2.7-fold between runs of identical code, too
	// far for any regression bound, so it is reported here without one.
	{"tail.p99_ms", "ms"},
	// The cost of the spans themselves.
	{"trace.overhead_ms", "ms"},
	{"trace.spans", "count"},
}

// workload is one input set and measurement loop; BENCHMARK.json says
// why each exists.
type workload struct {
	name string
	// gen writes the workload's inputs into dir. It runs in a child
	// process, so the measured process's peak RSS excludes it.
	gen func(sz sizes, seed int64, dir string) error
	// run measures, reading its inputs from rc.dir.
	run func(rc *runCtx) error
}

var workloads = []workload{
	{"observe-iot", genObserve, runObserveIoT},
	{"observe-burst", genObserve, runObserveBurst},
	{"train-epanet", genTrain, runTrain},
	{"corpus-wssc", genCorpus, runCorpus},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sizes are a workload's input sizes; "full" is what the contract
// measures and "tiny" is the smoke-test and probe size.
type sizes struct {
	name            string
	trainSamples    int     // profile training scenarios (observe inputs, train-epanet)
	scoreScenarios  int     // held-out scenarios scored inside each timed train-epanet pass
	testScenarios   int     // held-out scenarios behind the hamming metric
	iotPool         int     // distinct observe-iot observations
	burstPool       int     // distinct observe-burst observations
	burstJobs       int     // jobs per burst
	burstRate       float64 // offered jobs per second
	corpusScenarios int     // corpus-wssc scenarios per pass
	shardSamples    int     // scenarios per shard
	setupReps       int     // set-up repetitions per run
}

var sizeTable = map[string]sizes{
	"full": {name: "full", trainSamples: 600, scoreScenarios: 100, testScenarios: 1000, iotPool: 512, burstPool: 256,
		burstJobs: 32, burstRate: 2400, corpusScenarios: 2000, shardSamples: 256, setupReps: 32},
	"tiny": {name: "tiny", trainSamples: 60, scoreScenarios: 10, testScenarios: 20, iotPool: 16, burstPool: 16,
		burstJobs: 8, burstRate: 400, corpusScenarios: 64, shardSamples: 16, setupReps: 3},
}

// runCtx carries one run's settings and collects its report.
type runCtx struct {
	seed    int64
	seconds time.Duration
	sz      sizes
	dir     string
	traced  bool
	tr      *tracer // nil unless traced
	reg     *aquascale.TelemetryRegistry
	rep     *report
}

// report accumulates operation counts and metrics for one run.
type report struct {
	attempted, failed, refused, mismatches int
	metrics                                map[string]float64
	notes                                  []string
}

func newReport() *report { return &report{metrics: make(map[string]float64)} }

func (r *report) set(name string, v float64) { r.metrics[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// add folds another report's operation counts and notes into r.
func (r *report) add(o *report, prefix string) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.refused += o.refused
	r.mismatches += o.mismatches
	for _, n := range o.notes {
		r.note("%s%s", prefix, n)
	}
}

// mismatch records a failed correctness check: it is a failed operation.
func (r *report) mismatch(format string, args ...any) {
	r.mismatches++
	r.failed++
	if r.mismatches <= 5 {
		r.note("MISMATCH: "+format, args...)
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		wname   = fs.String("workload", "", "workload to run")
		seed    = fs.Int64("seed", 1, "workload seed: every input is generated from it")
		seconds = fs.Int("seconds", 20, "measurement window in seconds")
		trace   = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		size    = fs.String("size", "full", "input size: full or tiny (smoke test)")
		workdir = fs.String("workdir", ".bench_build/work", "scratch directory for inputs, profiles and shards")
		genOnly = fs.String("gen-inputs", "", "internal: write the workload's inputs into this directory and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := findWorkload(*wname)
	if !ok {
		return fmt.Errorf("unknown workload %q", *wname)
	}
	sz, ok := sizeTable[*size]
	if !ok {
		return fmt.Errorf("unknown size %q", *size)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	if *genOnly != "" {
		return w.gen(sz, *seed, *genOnly)
	}

	// Both CLIs enable telemetry before building anything; so does the
	// benchmark, so the measured code paths carry the same instruments.
	reg := aquascale.EnableTelemetry()

	dir := filepath.Join(*workdir, fmt.Sprintf("%s-seed%d-%d", w.name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := genInChild(w, sz, *seed, dir); err != nil {
		return err
	}

	rc := &runCtx{seed: *seed, seconds: time.Duration(*seconds) * time.Second, sz: sz,
		dir: dir, traced: *trace == 1, reg: reg, rep: newReport()}
	if rc.traced {
		rc.tr = newTracer()
	}
	if err := w.run(rc); err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	want := endToEnd
	if rc.traced {
		rc.rep.set("trace.spans", float64(len(rc.tr.spans)))
		if err := writeSpans(rc, w, *workdir); err != nil {
			return err
		}
		if err := probeMissing(rc, w); err != nil {
			return err
		}
		want = perLayer
	}
	return printReport(stdout, w, rc, want)
}

// maxSpans bounds the span file; the metrics use every span.
const maxSpans = 50000

// writeSpans writes the run's spans as JSON lines next to the work
// directory, and its per-layer self time as notes.
func writeSpans(rc *runCtx, w workload, workdir string) error {
	self := rc.tr.selfByLayer()
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		rc.rep.note("self time %-10s %10.3f ms", l, float64(self[l])/float64(time.Millisecond))
	}
	dir := filepath.Join(filepath.Dir(workdir), "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", w.name, rc.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rc.tr.write(f, maxSpans); err != nil {
		f.Close()
		return err
	}
	rc.rep.note("spans written to %s", path)
	return f.Close()
}

// genInChild generates the workload inputs in a child process running
// this binary, the way aquatrain hands a profile file to aquad.
func genInChild(w workload, sz sizes, seed int64, dir string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-size", sz.name, "-gen-inputs", dir)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("generate %s inputs: %w", w.name, err)
	}
	return nil
}

// probeMissing fills the per-layer metrics the traced workload does not
// exercise by running each other workload, traced, at tiny size for one
// second. Its operations count toward the run's totals.
func probeMissing(rc *runCtx, self workload) error {
	for _, w := range workloads {
		missing := false
		for _, m := range perLayer {
			if _, ok := rc.rep.metrics[m.name]; !ok {
				missing = true
			}
		}
		if !missing {
			return nil
		}
		if w.name == self.name {
			continue
		}
		pdir := filepath.Join(rc.dir, "probe-"+w.name)
		if err := os.MkdirAll(pdir, 0o755); err != nil {
			return err
		}
		tiny := sizeTable["tiny"]
		if err := w.gen(tiny, rc.seed, pdir); err != nil {
			return fmt.Errorf("probe %s: %w", w.name, err)
		}
		prc := &runCtx{seed: rc.seed, seconds: time.Second, sz: tiny, dir: pdir, traced: true,
			tr: newTracer(), reg: rc.reg, rep: newReport()}
		if err := w.run(prc); err != nil {
			return fmt.Errorf("probe %s: %w", w.name, err)
		}
		for name, v := range prc.rep.metrics {
			if _, ok := rc.rep.metrics[name]; !ok {
				rc.rep.metrics[name] = v
			}
		}
		rc.rep.add(prc.rep, "probe "+w.name+": ")
	}
	return nil
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// printReport writes the host record, notes and one line per metric, then
// the JSON result as the last line. A run whose correctness checks failed
// still prints its result, then fails.
func printReport(out io.Writer, w workload, rc *runCtx, want []metricDef) error {
	host := hostRecord()
	host["workload"] = w.name
	host["seed"] = rc.seed
	host["seconds"] = rc.seconds.Seconds()
	host["traced"] = rc.traced
	host["size"] = rc.sz.name
	hb, err := json.Marshal(host)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "host %s\n", hb)
	for _, n := range rc.rep.notes {
		fmt.Fprintf(out, "note %s\n", n)
	}
	fmt.Fprintf(out, "ops attempted=%d failed=%d refused=%d mismatches=%d\n",
		rc.rep.attempted, rc.rep.failed, rc.rep.refused, rc.rep.mismatches)

	res := resultOut{Metrics: make(map[string]metricOut, len(want))}
	for _, m := range want {
		v, ok := rc.rep.metrics[m.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", w.name, m.name)
		}
		fmt.Fprintf(out, "metric %-28s %14.6g %s\n", m.name, v, m.unit)
		res.Metrics[m.name] = metricOut{Value: v, Unit: m.unit}
	}
	res.Correct = rc.rep.mismatches == 0
	res.Attempted = rc.rep.attempted
	res.Failed = rc.rep.failed
	if res.Attempted < 1 {
		return fmt.Errorf("%s: no operations attempted", w.name)
	}
	rb, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", rb)
	if !res.Correct {
		return errors.New("correctness checks failed")
	}
	return nil
}
