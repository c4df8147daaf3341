package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/aquascale/aquascale"
	"github.com/aquascale/aquascale/internal/telemetry"
)

const (
	hours       = 24  // pattern hours the burst workload cycles through
	reportSlots = 4   // IoT slots of human reports per burst observation (one hour)
	gammaM      = 30  // the server's default clique coarseness (m)
	defaultPe   = 0.3 // the server's default report false-positive rate
)

// observeInputs are both observe workloads' inputs: pools of cold-weather
// observations, each with the offline oracle computed on the pointer path.
type observeInputs struct {
	Nodes int
	Iot   []iotCase
	Burst []burstCase
}

type iotCase struct {
	Features  []float64
	Labels    []int     // per node
	Proba     []float64 // offline System.Localize
	PreFusion []float64 // offline Profile.PredictProba
}

type burstCase struct {
	Labels       []int // per node
	TemperatureF float64
	FrozenNodes  []int
	Reports      []aquascale.ObserveReport
	Readings     [][]float64 // per pattern hour: features + quiescent baseline
	Features     [][]float64 // per pattern hour: readings - baseline, as the server computes them
	Fused        [][]float64 // per pattern hour: offline Localize with freeze and clique evidence
	Unfused      [][]float64 // per pattern hour: offline Localize on the features alone
}

// genObserve trains the served profile (aquatrain -save), writes it to
// profile.gob, and draws both observation pools with their oracles.
func genObserve(sz sizes, seed int64, dir string) error {
	d, err := buildDeployment(aquascale.BuildEPANet, trainingConfig, nil, -1)
	if err != nil {
		return err
	}
	ds, err := d.factory.Generate(sz.trainSamples, rand.New(rand.NewSource(seed+11)))
	if err != nil {
		return err
	}
	nodes := len(d.net.Nodes)
	prof, err := aquascale.TrainProfile(ds, nodes, aquascale.ProfileConfig{Technique: technique, Seed: seed + 77})
	if err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "profile.gob"))
	if err != nil {
		return err
	}
	if err := prof.Save(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	sys := aquascale.NewSystem(d.factory, d.net, aquascale.SystemConfig{})
	if err := sys.SetProfile(prof); err != nil {
		return err
	}
	in := observeInputs{Nodes: nodes}
	rng := rand.New(rand.NewSource(seed + 23))
	for len(in.Iot) < sz.iotPool {
		sc, err := sys.GenerateColdScenario(leakCfg, rng)
		if err != nil {
			return err
		}
		obs, err := sys.Observe(sc, aquascale.ObserveOptions{}, rng)
		if err != nil {
			return err
		}
		pred, _, err := sys.Localize(obs)
		if err != nil {
			return err
		}
		pre, err := prof.PredictProba(obs.Features)
		if err != nil {
			return err
		}
		in.Iot = append(in.Iot, iotCase{Features: obs.Features, Labels: sc.Labels(nodes), Proba: pred.Proba, PreFusion: pre})
	}

	bases := make([][]float64, hours)
	for h := range bases {
		if bases[h], err = sys.QuiescentBaseline(h); err != nil {
			return err
		}
	}
	reporter, err := aquascale.NewReportGenerator(d.net, sys.Social(), rand.New(rand.NewSource(1)))
	if err != nil {
		return err
	}
	rng = rand.New(rand.NewSource(seed + 29))
	for len(in.Burst) < sz.burstPool {
		sc, err := sys.GenerateColdScenario(leakCfg, rng)
		if err != nil {
			return err
		}
		obs, err := sys.Observe(sc, aquascale.ObserveOptions{Sources: aquascale.Sources{Weather: true}}, rng)
		if err != nil {
			return err
		}
		reports, err := reporter.ReportsWith(rng, sc.LeakNodes(), reportSlots)
		if err != nil {
			return err
		}
		// Below weather.FreezeThresholdF (20 °F), so the server keeps the
		// frozen-node evidence.
		c := burstCase{Labels: sc.Labels(nodes), TemperatureF: 5 + 14*rng.Float64()}
		// The evidence exactly as the server rebuilds it from the request:
		// a frozen mask only when nodes are listed, cliques only when
		// reports arrived, built from the reports' wire fields alone.
		var frozen []bool
		for v, on := range obs.Frozen {
			if on {
				c.FrozenNodes = append(c.FrozenNodes, v)
			}
		}
		if len(c.FrozenNodes) > 0 {
			frozen = make([]bool, nodes)
			for _, v := range c.FrozenNodes {
				frozen[v] = true
			}
		}
		var cliques []aquascale.Clique
		if len(reports) > 0 {
			wire := make([]aquascale.Report, len(reports))
			for i, r := range reports {
				c.Reports = append(c.Reports, aquascale.ObserveReport{X: r.X, Y: r.Y, Slot: r.Slot})
				wire[i] = aquascale.Report{X: r.X, Y: r.Y, Slot: r.Slot}
			}
			cliques = aquascale.BuildCliques(d.net, wire, gammaM, socialPe(sys))
		}
		for h := 0; h < hours; h++ {
			readings := make([]float64, len(obs.Features))
			feats := make([]float64, len(obs.Features))
			for i, f := range obs.Features {
				readings[i] = f + bases[h][i]
				feats[i] = readings[i] - bases[h][i]
			}
			fused, _, err := sys.Localize(aquascale.Observation{Features: feats, Frozen: frozen, Cliques: cliques})
			if err != nil {
				return err
			}
			unfused, _, err := sys.Localize(aquascale.Observation{Features: feats})
			if err != nil {
				return err
			}
			c.Readings = append(c.Readings, readings)
			c.Features = append(c.Features, feats)
			c.Fused = append(c.Fused, fused.Proba)
			c.Unfused = append(c.Unfused, unfused.Proba)
		}
		in.Burst = append(in.Burst, c)
	}
	return writeGob(filepath.Join(dir, "inputs.gob"), &in)
}

func socialPe(sys *aquascale.System) float64 {
	if pe := sys.Social().FalsePositiveRate; pe > 0 {
		return pe
	}
	return defaultPe
}

// observeServer is one started aquad: system, server and HTTP listener.
type observeServer struct {
	sys    *aquascale.System
	srv    *aquascale.Server
	hs     *http.Server
	url    string
	served chan error
}

// startObserve is what aquad does at start with its default ServeConfig:
// rebuild the deployment, load the profile file, install and compile it,
// start the server and listen. The JSON access log goes to io.Discard, so
// its formatting cost is paid but nothing is written.
func startObserve(profilePath string, tr *tracer) (*observeServer, error) {
	root := tr.begin("benchmark", "setup", -1, 0)
	defer tr.end(root)
	d, err := buildDeployment(aquascale.BuildEPANet, aquascale.DatasetConfig{Noise: aquascale.DefaultSensorNoise}, tr, root)
	if err != nil {
		return nil, err
	}

	id := tr.begin("core", "core.load", root, 0)
	f, err := os.Open(profilePath)
	if err != nil {
		return nil, err
	}
	prof, err := aquascale.LoadProfile(f)
	f.Close()
	tr.end(id)
	if err != nil {
		return nil, err
	}

	id = tr.begin("core", "core.set_profile", root, 0)
	sys := aquascale.NewSystem(d.factory, d.net, aquascale.SystemConfig{})
	err = sys.SetProfile(prof)
	tr.end(id)
	if err != nil {
		return nil, err
	}

	id = tr.begin("serve", "serve.new", root, 0)
	srv, err := aquascale.NewServer(sys, aquascale.ServeConfig{Logger: aquascale.NewLogger(io.Discard, slog.LevelInfo)})
	tr.end(id)
	if err != nil {
		return nil, err
	}

	id = tr.begin("serve", "serve.listen", root, 0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	o := &observeServer{sys: sys, srv: srv, hs: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String() + "/v1/observe?wait=1", served: make(chan error, 1)}
	go func() { o.served <- o.hs.Serve(ln) }()
	tr.end(id)
	return o, nil
}

// close stops listening, waits for the HTTP server to exit and drains the
// worker pool.
func (o *observeServer) close() error {
	// Close only reports the listener's close error; Serve's return, which
	// follows, is always http.ErrServerClosed.
	o.hs.Close()
	<-o.served
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := o.srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	return nil
}

// closeInto closes o and reports a failed drain through *err unless an
// earlier error is already there.
func (o *observeServer) closeInto(err *error) {
	if cerr := o.close(); cerr != nil && *err == nil {
		*err = cerr
	}
}

// setupObserve loads the inputs and times the aquad start-up sequence.
func setupObserve(rc *runCtx) (*observeInputs, *observeServer, error) {
	var in observeInputs
	if err := readGob(filepath.Join(rc.dir, "inputs.gob"), &in); err != nil {
		return nil, nil, err
	}
	var live *observeServer
	setup, reps, err := medianSetup(rc.sz.setupReps, func() (func(), error) {
		o, err := startObserve(filepath.Join(rc.dir, "profile.gob"), rc.tr)
		if err != nil {
			return nil, err
		}
		live = o
		return func() {
			if err := o.close(); err != nil {
				rc.rep.note("set-up repetition teardown: %v", err)
			}
		}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	rc.rep.set("setup_s", setup.Seconds())
	rc.rep.note("set-up repetitions: %s ms", fmtList(reps))
	if rc.traced {
		if err := setupLayerMetrics(rc, rc.tr); err != nil {
			return nil, nil, err
		}
		for _, name := range []string{"serve.new", "core.load"} {
			v, err := spanP50(rc.tr, name, time.Millisecond)
			if err != nil {
				return nil, nil, err
			}
			rc.rep.set(name+"_ms", v)
		}
	}
	return &in, live, nil
}

// served is the part of a /v1/observe response the checks read.
type served struct {
	Result *struct {
		LeakNodes []int     `json:"leak_nodes"`
		Proba     []float64 `json:"proba"`
	} `json:"result"`
}

// checkBody verifies one HTTP answer against its oracle and returns the
// served leak set.
func checkBody(rep *report, body []byte, oracle []float64, nodes int) []int {
	var s served
	if err := json.Unmarshal(body, &s); err != nil || s.Result == nil {
		rep.mismatch("undecodable observe response: %.120s", body)
		return nil
	}
	if !sameBits(s.Result.Proba, oracle) {
		rep.mismatch("served probabilities differ from offline Localize")
	}
	return nodeSet(s.Result.LeakNodes, nodes)
}

// loopStats is one closed- or open-loop segment's outcome.
type loopStats struct {
	lat       []float64 // per completed operation, ms
	completed int
	elapsed   time.Duration
}

func (s loopStats) throughput() float64 { return float64(s.completed) / s.elapsed.Seconds() }

// hammingMean is the mean of per-case scores over the cases served.
func hammingMean(scores map[int]float64) float64 {
	if len(scores) == 0 {
		return 0
	}
	total := 0.0
	for _, v := range scores {
		total += v
	}
	return total / float64(len(scores))
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}

// post sends one observe request and returns the status and the body.
func post(client *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, b, err
}

// countHTTP classifies a non-200 answer: 429 is a refusal, anything else
// a failure. Both count as failed operations.
func countHTTP(rep *report, status int, err error) bool {
	if err == nil && status == http.StatusOK {
		return true
	}
	rep.failed++
	if status == http.StatusTooManyRequests {
		rep.refused++
	} else if rep.failed <= 5 {
		rep.note("observe request failed: status %d, %v", status, err)
	}
	return false
}

// iotLoop is the observe-iot closed loop: one connection, the next request
// sent when the previous answer has been read. Latency runs from send to
// the last body byte; decoding and checking the answer happen after.
func iotLoop(rc *runCtx, o *observeServer, client *http.Client, in *observeInputs, bodies [][]byte,
	dur time.Duration, tr *tracer, scores map[int]float64) loopStats {
	var st loopStats
	start := time.Now()
	for i := 0; time.Since(start) < dur; i++ {
		k := i % len(in.Iot)
		rc.rep.attempted++
		id := tr.begin("serve", "serve.http_rtt", -1, int64(i))
		t0 := time.Now()
		status, body, err := post(client, o.url, bodies[k])
		d := time.Since(t0)
		tr.end(id)
		if !countHTTP(rc.rep, status, err) {
			continue
		}
		st.completed++
		st.lat = append(st.lat, float64(d)/float64(time.Millisecond))
		set := checkBody(rc.rep, body, in.Iot[k].Proba, in.Nodes)
		if _, ok := scores[k]; !ok && set != nil {
			scores[k] = aquascale.HammingScore(set, in.Iot[k].Labels)
		}
	}
	st.elapsed = time.Since(start)
	return st
}

func runObserveIoT(rc *runCtx) (err error) {
	in, live, err := setupObserve(rc)
	if err != nil {
		return err
	}
	defer live.closeInto(&err)
	stopGauges := rc.reg.StartRuntimeGauges(0)
	defer stopGauges()

	bodies := make([][]byte, len(in.Iot))
	for k, c := range in.Iot {
		if bodies[k], err = json.Marshal(aquascale.ObserveRequest{Features: c.Features}); err != nil {
			return err
		}
	}
	client := newClient()
	defer client.CloseIdleConnections()
	scores := make(map[int]float64)

	if !rc.traced {
		st := iotLoop(rc, live, client, in, bodies, rc.seconds, nil, scores)
		rc.rep.set("peak_rss_mib", peakRSSMiB())
		setLatency(rc, st, true)
		rc.rep.set("hamming", hammingMean(scores))
		return nil
	}

	seg := split(rc.seconds)
	before, ms0 := live.srv.Status(), readMem()
	un := iotLoop(rc, live, client, in, bodies, seg, nil, scores)
	after, ms1 := live.srv.Status(), readMem()
	setServeCounts(rc, un.completed, before, after, ms0, ms1)
	traced := iotLoop(rc, live, client, in, bodies, seg, rc.tr, scores)
	setOverhead(rc, traced.lat, un.lat)
	rc.rep.set("tail.p99_ms", percentile(un.lat, 99))
	if err := iotLadder(rc, live, client, in, bodies, seg); err != nil {
		return err
	}
	return nil
}

// setLatency reports a segment's end-to-end latency and throughput. A
// closed loop on one connection sends its next request when the last
// answer is in, so its rate is set by its latency: its throughput is
// reported at the median latency, because the completed-per-second count
// follows the mean, which the host's millisecond hiccups dominate. An open
// loop's throughput is what it completed per second.
func setLatency(rc *runCtx, st loopStats, closedLoop bool) {
	p50 := median(st.lat)
	rc.rep.set("p50_ms", p50)
	if closedLoop {
		rc.rep.set("throughput_per_s", 1e3/p50)
	} else {
		rc.rep.set("throughput_per_s", st.throughput())
	}
	rc.rep.note("latency over %d samples: p50 %.4f ms, p90 %.4f ms, p99 %.4f ms (%d samples beyond it); %.1f completed/s over %.3fs",
		len(st.lat), p50, percentile(st.lat, 90), percentile(st.lat, 99), len(st.lat)/100,
		st.throughput(), st.elapsed.Seconds())
}

// setOverhead reports traced minus untraced median operation time.
func setOverhead(rc *runCtx, traced, untraced []float64) {
	rc.rep.set("trace.overhead_ms", median(traced)-median(untraced))
	rc.rep.note("tracing overhead: p50 %.4f ms traced vs %.4f ms untraced", median(traced), median(untraced))
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// setServeCounts reports the allocation, GC and batching counts of an
// untraced serving window of n completed requests (client and server
// share the process, so allocations include the client's).
func setServeCounts(rc *runCtx, n int, before, after aquascale.ServeStatus, ms0, ms1 runtime.MemStats) {
	if n == 0 {
		n = 1
	}
	rc.rep.set("serve.allocs_per_req", float64(ms1.Mallocs-ms0.Mallocs)/float64(n))
	rc.rep.set("serve.bytes_per_req", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(n))
	rc.rep.set("serve.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
	done := after.Done - before.Done
	batched := after.BatchedJobs - before.BatchedJobs
	batches := after.Batches - before.Batches
	share, size := 0.0, 0.0
	if done > 0 {
		share = float64(batched) / float64(done)
	}
	if batches > 0 {
		size = float64(batched) / float64(batches)
	}
	rc.rep.set("serve.batched_share", share)
	rc.rep.set("serve.batch_size_mean", size)
	rc.rep.set("serve.batched_jobs", float64(batched))
}

// ladderBlock is how many consecutive calls each ladder rung makes before
// the next rung takes over. Blocks keep each rung's code and data warm in
// cache, as a steady stream of that call would; alternating rungs call by
// call made the deepest rung, whose compiled copy no other rung touches,
// read slower than the rung above it.
const ladderBlock = 32

// iotLadder times the same request stream one layer deeper per rung:
// HTTP over the socket, the handler into a recorder, Submit and wait,
// LocalizeInto on a reused buffer, and the compiled profile alone. Each
// rung's answer is checked. Self time of a layer is the difference of
// neighbouring rungs' medians.
func iotLadder(rc *runCtx, o *observeServer, client *http.Client, in *observeInputs, bodies [][]byte, dur time.Duration) error {
	tr := rc.tr
	handler := o.srv.Handler()
	compiled, err := o.sys.Profile().Compile()
	if err != nil {
		return err
	}
	pred := &aquascale.Prediction{Proba: make([]float64, in.Nodes)}
	out := make([]float64, compiled.NodeCount())
	start := time.Now()
	for i := 0; time.Since(start) < dur; i++ {
		k := i % len(in.Iot)
		c := in.Iot[k]
		req := int64(i)
		rc.rep.attempted++
		switch (i / ladderBlock) % 5 {
		case 0:
			id := tr.begin("serve", "serve.http_rtt", -1, req)
			status, body, err := post(client, o.url, bodies[k])
			tr.end(id)
			if countHTTP(rc.rep, status, err) {
				checkBody(rc.rep, body, c.Proba, in.Nodes)
			}
		case 1:
			hreq := httptest.NewRequest(http.MethodPost, "/v1/observe?wait=1", bytes.NewReader(bodies[k]))
			rec := httptest.NewRecorder()
			id := tr.begin("serve", "serve.handler", -1, req)
			handler.ServeHTTP(rec, hreq)
			tr.end(id)
			if countHTTP(rc.rep, rec.Code, nil) {
				checkBody(rc.rep, rec.Body.Bytes(), c.Proba, in.Nodes)
			}
		case 2:
			id := tr.begin("serve", "serve.submit_wait", -1, req)
			j, err := o.srv.Submit(aquascale.ObserveRequest{Features: c.Features})
			if err == nil {
				<-j.Done()
			}
			tr.end(id)
			if err != nil {
				countSubmitErr(rc.rep, err)
				continue
			}
			if _, res, err := j.Status(); err != nil || !sameBits(res.Proba, c.Proba) {
				rc.rep.mismatch("Submit result differs from offline Localize (%v)", err)
			}
		case 3:
			id := tr.begin("core", "core.localize", -1, req)
			_, err := o.sys.LocalizeInto(pred, aquascale.Observation{Features: c.Features})
			tr.end(id)
			if err != nil || !sameBits(pred.Proba, c.Proba) {
				rc.rep.mismatch("LocalizeInto differs from offline Localize (%v)", err)
			}
		case 4:
			id := tr.begin("mlearn", "mlearn.predict", -1, req)
			err := compiled.PredictProbaInto(c.Features, out)
			tr.end(id)
			if err != nil || !sameBits(out, c.PreFusion) {
				rc.rep.mismatch("compiled PredictProbaInto differs from Profile.PredictProba (%v)", err)
			}
		}
	}

	rtt := inUnit(tr.durations("serve.http_rtt"), time.Microsecond)
	rc.rep.set("serve.http_rtt_us_p50", median(rtt))
	rc.rep.set("serve.http_rtt_us_p99", percentile(rtt, 99))
	rungs := []string{"serve.handler", "serve.submit_wait", "core.localize", "mlearn.predict"}
	p50 := map[string]float64{"serve.http_rtt": median(rtt)}
	for _, name := range rungs {
		v, err := spanP50(tr, name, time.Microsecond)
		if err != nil {
			return err
		}
		p50[name] = v
		rc.rep.set(name+"_us", v)
	}
	rc.rep.set("serve.socket_self_us", p50["serve.http_rtt"]-p50["serve.handler"])
	rc.rep.set("serve.http_self_us", p50["serve.handler"]-p50["serve.submit_wait"])
	rc.rep.set("serve.admission_self_us", p50["serve.submit_wait"]-p50["core.localize"])
	rc.rep.set("core.self_us", p50["core.localize"]-p50["mlearn.predict"])
	return nil
}

// countSubmitErr counts a refused or failed Submit.
func countSubmitErr(rep *report, err error) {
	rep.failed++
	if errors.Is(err, aquascale.ErrQueueFull) {
		rep.refused++
		return
	}
	if rep.failed <= 5 {
		rep.note("submit failed: %v", err)
	}
}

// pendingJob is one submitted burst job awaiting completion.
type pendingJob struct {
	job       *aquascale.ServeJob
	due       time.Time // the burst's scheduled release
	submitted time.Time // when Submit was called
	k, hour   int
}

// burstLoop is the observe-burst open loop: every interval a burst of
// same-hour readings jobs is released through Submit, whether or not
// earlier jobs have finished. Latency runs from the burst's scheduled
// time to the job's completion, so a stalled generator or server shows up
// in every later job.
//
// The generator collects finished jobs itself, between bursts, without
// blocking; a collector goroutine waking on every completion would compete
// with the server's two workers for the host's two CPUs. Completion times
// come from the server: each job's latency is stamped from its enqueue,
// inside Submit, to its completion.
func burstLoop(rc *runCtx, o *observeServer, in *observeInputs, dur time.Duration, tr *tracer,
	scores map[int]float64, reqs []aquascale.ObserveRequest) (loopStats, []float64) {
	per := rc.sz.burstJobs
	interval := time.Duration(float64(time.Second) * float64(per) / rc.sz.burstRate)
	var st loopStats
	var queueWait, late []float64
	var pending []pendingJob
	start := time.Now()
	finish := func(p pendingJob) {
		_, res, err := p.job.Status()
		if err != nil {
			rc.rep.failed++
			if rc.rep.failed <= 5 {
				rc.rep.note("burst job failed: %v", err)
			}
			return
		}
		doneAt := p.submitted.Add(time.Duration(res.LatencySeconds * float64(time.Second)))
		tr.record("serve", "serve.job_wait", 0, p.submitted, doneAt)
		st.completed++
		st.lat = append(st.lat, float64(doneAt.Sub(p.due))/float64(time.Millisecond))
		c := &in.Burst[p.k]
		if !sameBits(res.Proba, c.Fused[p.hour]) {
			rc.rep.mismatch("burst job %d hour %d differs from offline Localize", p.k, p.hour)
		}
		key := p.k*hours + p.hour
		if _, ok := scores[key]; !ok {
			scores[key] = aquascale.HammingScore(nodeSet(res.LeakNodes, in.Nodes), c.Labels)
		}
		if tr != nil {
			for _, ev := range p.job.Trace().Events {
				if ev.Stage == string(telemetry.StageQueueWait) {
					queueWait = append(queueWait, ev.Value*1e3)
				}
			}
		}
	}
	// collect finishes the pending jobs that are done, or all of them
	// when wait is set.
	collect := func(wait bool) {
		keep := pending[:0]
		for _, p := range pending {
			if wait {
				<-p.job.Done()
			} else {
				select {
				case <-p.job.Done():
				default:
					keep = append(keep, p)
					continue
				}
			}
			finish(p)
		}
		pending = keep
	}

	for b := 0; b < int(dur/interval); b++ {
		due := start.Add(time.Duration(b) * interval)
		collect(false)
		time.Sleep(time.Until(due))
		late = append(late, float64(time.Since(due))/float64(time.Millisecond))
		hour := b % hours
		for i := 0; i < per; i++ {
			k := (b*per + i) % len(in.Burst)
			rc.rep.attempted++
			id := tr.begin("serve", "serve.submit", -1, int64(b*per+i))
			submitted := time.Now()
			j, err := o.srv.Submit(reqs[k*hours+hour])
			tr.end(id)
			if err != nil {
				countSubmitErr(rc.rep, err)
				continue
			}
			pending = append(pending, pendingJob{job: j, due: due, submitted: submitted, k: k, hour: hour})
		}
	}
	collect(true)
	st.elapsed = time.Since(start)
	if tr != nil {
		rc.rep.set("serve.queue_wait_ms_p50", median(queueWait))
		rc.rep.set("serve.queue_wait_ms_p99", percentile(queueWait, 99))
	}
	return st, late
}

// burstRequests builds every (observation, hour) request once, untimed.
func burstRequests(in *observeInputs) []aquascale.ObserveRequest {
	reqs := make([]aquascale.ObserveRequest, 0, len(in.Burst)*hours)
	for k := range in.Burst {
		c := &in.Burst[k]
		for h := 0; h < hours; h++ {
			hour := h
			reqs = append(reqs, aquascale.ObserveRequest{
				Readings:     c.Readings[h],
				PatternHour:  &hour,
				TemperatureF: &c.TemperatureF,
				FrozenNodes:  c.FrozenNodes,
				Reports:      c.Reports,
			})
		}
	}
	return reqs
}

func runObserveBurst(rc *runCtx) (err error) {
	in, live, err := setupObserve(rc)
	if err != nil {
		return err
	}
	defer live.closeInto(&err)
	stopGauges := rc.reg.StartRuntimeGauges(0)
	defer stopGauges()
	reqs := burstRequests(in)
	scores := make(map[int]float64)

	// One untimed pass over all pattern hours fills the baseline memo, a
	// cost a server pays once per hour of the day, not per request.
	warm := time.Duration(hours) * time.Duration(float64(time.Second)*float64(rc.sz.burstJobs)/rc.sz.burstRate)
	burstLoop(rc, live, in, warm+time.Millisecond, nil, scores, reqs)

	if !rc.traced {
		st, late := burstLoop(rc, live, in, rc.seconds, nil, scores, reqs)
		rc.rep.set("peak_rss_mib", peakRSSMiB())
		setLatency(rc, st, false)
		rc.rep.set("hamming", hammingMean(scores))
		rc.rep.note("generator lateness p50 %.3f ms, max %.3f ms over %d bursts of %d at %.0f jobs/s",
			median(late), percentile(late, 100), len(late), rc.sz.burstJobs, rc.sz.burstRate)
		return nil
	}

	seg := split(rc.seconds)
	before, ms0 := live.srv.Status(), readMem()
	un, _ := burstLoop(rc, live, in, seg, nil, scores, reqs)
	after, ms1 := live.srv.Status(), readMem()
	setServeCounts(rc, un.completed, before, after, ms0, ms1)
	traced, late := burstLoop(rc, live, in, seg, rc.tr, scores, reqs)
	setOverhead(rc, traced.lat, un.lat)
	rc.rep.set("tail.p99_ms", percentile(un.lat, 99))
	rc.rep.set("loadgen.late_ms_p50", median(late))
	rc.rep.set("loadgen.late_ms_max", percentile(late, 100))
	for _, name := range []string{"serve.submit", "serve.job_wait"} {
		v, err := spanP50(rc.tr, name, time.Microsecond)
		if err != nil {
			return err
		}
		rc.rep.set(name+"_us", v)
	}
	return burstLadder(rc, live, in, seg)
}

// burstLadder times the layers a burst job passes through, one public
// call each, on the same observations: clique extraction, the memoized
// baseline, LocalizeInto with and without freeze and clique evidence.
// Fusion's self time is the difference of the last two.
func burstLadder(rc *runCtx, o *observeServer, in *observeInputs, dur time.Duration) error {
	tr := rc.tr
	nw := o.sys.Network()
	pe := socialPe(o.sys)
	pred := &aquascale.Prediction{Proba: make([]float64, in.Nodes)}
	frozen := make([][]bool, len(in.Burst))
	wire := make([][]aquascale.Report, len(in.Burst))
	for k, c := range in.Burst {
		if len(c.FrozenNodes) > 0 {
			frozen[k] = make([]bool, in.Nodes)
			for _, v := range c.FrozenNodes {
				frozen[k][v] = true
			}
		}
		for _, r := range c.Reports {
			wire[k] = append(wire[k], aquascale.Report{X: r.X, Y: r.Y, Slot: r.Slot})
		}
	}
	cliques := make([][]aquascale.Clique, len(in.Burst))
	for k := range wire {
		if len(wire[k]) > 0 {
			cliques[k] = aquascale.BuildCliques(nw, wire[k], gammaM, pe)
		}
	}
	start := time.Now()
	for i := 0; time.Since(start) < dur; i++ {
		k, hour := i%len(in.Burst), (i/len(in.Burst))%hours
		c := &in.Burst[k]
		req := int64(i)
		rc.rep.attempted++
		switch (i / ladderBlock) % 4 {
		case 0:
			id := tr.begin("social", "social.cliques", -1, req)
			got := aquascale.BuildCliques(nw, wire[k], gammaM, pe)
			tr.end(id)
			if len(got) != len(cliques[k]) {
				rc.rep.mismatch("BuildCliques gave %d cliques, earlier %d", len(got), len(cliques[k]))
			}
		case 1:
			id := tr.begin("core", "core.baseline", -1, req)
			base, err := o.sys.QuiescentBaseline(hour)
			tr.end(id)
			if err != nil || len(base) != len(c.Readings[hour]) {
				rc.rep.mismatch("QuiescentBaseline(%d) failed: %v", hour, err)
			}
		case 2:
			id := tr.begin("core", "core.localize_fused", -1, req)
			_, err := o.sys.LocalizeInto(pred, aquascale.Observation{Features: c.Features[hour], Frozen: frozen[k], Cliques: cliques[k]})
			tr.end(id)
			if err != nil || !sameBits(pred.Proba, c.Fused[hour]) {
				rc.rep.mismatch("fused LocalizeInto differs from offline Localize (%v)", err)
			}
		case 3:
			id := tr.begin("core", "core.localize", -1, req)
			_, err := o.sys.LocalizeInto(pred, aquascale.Observation{Features: c.Features[hour]})
			tr.end(id)
			if err != nil || !sameBits(pred.Proba, c.Unfused[hour]) {
				rc.rep.mismatch("LocalizeInto differs from offline Localize (%v)", err)
			}
		}
	}
	p50 := make(map[string]float64)
	for _, name := range []string{"social.cliques", "core.baseline", "core.localize_fused", "core.localize"} {
		v, err := spanP50(tr, name, time.Microsecond)
		if err != nil {
			return err
		}
		p50[name] = v
		rc.rep.set(name+"_us", v)
	}
	rc.rep.set("fusion.self_us", p50["core.localize_fused"]-p50["core.localize"])
	if p50["core.localize"] <= 0 {
		return fmt.Errorf("no localize spans")
	}
	return nil
}
