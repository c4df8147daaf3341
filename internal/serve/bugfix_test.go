package serve

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/aquascale/aquascale/internal/core"
	"github.com/aquascale/aquascale/internal/faults"
	"github.com/aquascale/aquascale/internal/telemetry"
)

// TestDefaultSeedsDistinctUnderRace pins the Submit seed-race fix: with
// Seed unset, concurrent submissions must never share a fault-injection
// rng stream. The old code re-read the sequence counter after Add(1), so
// two racing submissions could both observe the same value.
func TestDefaultSeedsDistinctUnderRace(t *testing.T) {
	const n = 64
	s := newTestServer(t, Config{Workers: 2, QueueSize: n})
	feats := testFeatures(s.System(), 21)

	jobs := make([]*Job, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			j, err := s.Submit(ObserveRequest{Features: feats})
			if err != nil {
				t.Errorf("Submit %d: %v", i, err)
				return
			}
			jobs[i] = j
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	seen := make(map[int64]string, n)
	for _, j := range jobs {
		if prev, dup := seen[j.seed]; dup {
			t.Fatalf("jobs %s and %s share default seed %d", prev, j.ID(), j.seed)
		}
		seen[j.seed] = j.ID()
	}
}

// TestRetryAfterSubSecondMax pins the Retry-After clamp fix: a
// RetryAfterMax below one second must still yield the documented
// positive integer (1), not 0.
func TestRetryAfterSubSecondMax(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, RetryAfterMax: 500 * time.Millisecond})
	// Load-derived branch: with an EWMA in place the estimate is clamped
	// to the (sub-second) cap, which itself must clamp to ≥ 1.
	s.observeService(3 * time.Second)
	if got := s.retryAfterSeconds(); got != 1 {
		t.Fatalf("retryAfterSeconds = %d with RetryAfterMax 500ms, want 1", got)
	}
}

// TestFastPathMetricsReportTakenPath pins the metrics-truth fix: the
// fast-path counter must report the path the evaluation actually took,
// not the snapshot state re-queried after the fact (which a concurrent
// SwapProfile can change mid-request).
func TestFastPathMetricsReportTakenPath(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	feats := testFeatures(s.System(), 17)

	j, err := s.Submit(ObserveRequest{Features: feats, Seed: 1})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitResult(t, j)
	compiledJobs := s.Status().FastPathJobs
	if compiledJobs < 1 {
		t.Fatalf("FastPathJobs = %d after a compiled-path job, want ≥ 1", compiledJobs)
	}

	// Drop the snapshot without recompiling (SetProfile directly, unlike
	// SwapProfile): the next job runs the pointer path and must NOT count.
	if err := s.System().SetProfile(testbed.profile); err != nil {
		t.Fatalf("SetProfile: %v", err)
	}
	if s.System().Compiled() {
		t.Fatal("snapshot survived SetProfile")
	}
	j, err = s.Submit(ObserveRequest{Features: feats, Seed: 2})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitResult(t, j)
	if got := s.Status().FastPathJobs; got != compiledJobs {
		t.Fatalf("FastPathJobs = %d after a pointer-path job, want unchanged %d", got, compiledJobs)
	}

	// SwapProfile recompiles; fast-path accounting resumes.
	if err := s.SwapProfile(testbed.profile); err != nil {
		t.Fatalf("SwapProfile: %v", err)
	}
	j, err = s.Submit(ObserveRequest{Features: feats, Seed: 3})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitResult(t, j)
	if got := s.Status().FastPathJobs; got != compiledJobs+1 {
		t.Fatalf("FastPathJobs = %d after recompile, want %d", got, compiledJobs+1)
	}
}

// TestRejectedSubmissionTraced pins the rejected-trace fix: a submission
// refused at queue-full with a client-forced traceparent must land in
// the flight recorder with an error stage and surface its trace id on
// the 429 response.
func TestRejectedSubmissionTraced(t *testing.T) {
	s := newTestServer(t, Config{
		Workers:     1,
		QueueSize:   1,
		TraceSample: -1, // refusals are failures: captured regardless
		Faults:      faults.Config{RequestSlow: 1, RequestDelay: 400 * time.Millisecond},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	feats := testFeatures(s.System(), 19)

	// Occupy the worker, then the 1-deep queue.
	if _, err := s.Submit(ObserveRequest{Features: feats, Seed: 1}); err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	if _, err := s.Submit(ObserveRequest{Features: feats, Seed: 2}); err != nil {
		t.Fatalf("Submit queued: %v", err)
	}

	const tid = "af7651916cd43dd8448eb211c80319c6"
	body, _ := json.Marshal(ObserveRequest{Features: feats, Seed: 3})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/observe", strings.NewReader(string(body)))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", "00-"+tid+"-00f067aa0ba902b7-01")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != tid {
		t.Fatalf("refusal X-Trace-Id = %q, want %q", got, tid)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	var snap *telemetry.TraceSnapshot
	for _, cand := range s.Recorder().Recent(s.Recorder().Cap()) {
		if cand.TraceID == tid {
			snap = cand
			break
		}
	}
	if snap == nil {
		t.Fatal("rejected submission's trace not in the flight recorder")
	}
	if !hasStage(snap, telemetry.StageError) || !hasStage(snap, telemetry.StageDone) {
		t.Fatalf("rejection timeline incomplete: %v", stages(snap))
	}
	if snap.Error == "" {
		t.Fatal("rejection snapshot carries no error")
	}

	// Validation refusals are traced too, and the wrapped error still
	// matches the documented types.
	_, err = s.Submit(ObserveRequest{Features: feats[:1], TraceParent: "00-" + tid + "-00f067aa0ba902b7-01"})
	var re *RequestError
	if !errors.As(err, &re) {
		t.Fatalf("validation refusal err = %v, want RequestError", err)
	}
	var se *SubmitError
	if !errors.As(err, &se) || se.TraceID != tid {
		t.Fatalf("validation refusal not a SubmitError with the forced id: %v", err)
	}
}

// TestBatchedObserveBitIdentity pins the micro-batching invariant under
// -race: concurrent same-hour Readings requests scored as one batch
// produce results bit-identical to offline System.Localize on each
// request's own subtracted deltas.
func TestBatchedObserveBitIdentity(t *testing.T) {
	s := newTestServer(t, Config{
		Workers:        1,
		QueueSize:      16,
		BatchMax:       4,
		RequestTimeout: 30 * time.Second,
		Faults:         faults.Config{RequestSlow: 1, RequestDelay: 300 * time.Millisecond},
	})
	sys := s.System()
	want := sys.Factory().SensorCount()
	hour := 11
	base, err := sys.QuiescentBaseline(hour)
	if err != nil {
		t.Fatalf("QuiescentBaseline: %v", err)
	}

	// Block the single worker so the Readings submissions below queue up
	// and board together.
	blocker, err := s.Submit(ObserveRequest{Features: testFeatures(sys, 1), Seed: 1})
	if err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	time.Sleep(50 * time.Millisecond)

	const members = 3
	jobs := make([]*Job, members)
	readings := make([][]float64, members)
	for i := range jobs {
		deltas := testFeatures(sys, int64(40+i))
		readings[i] = make([]float64, want)
		for k := range deltas {
			readings[i][k] = base[k] + deltas[k]
		}
		j, err := s.Submit(ObserveRequest{Readings: readings[i], PatternHour: &hour, Seed: int64(50 + i)})
		if err != nil {
			t.Fatalf("Submit readings %d: %v", i, err)
		}
		jobs[i] = j
	}

	waitResult(t, blocker)
	var lead, share int
	for i, j := range jobs {
		got := waitResult(t, j)
		exp := make([]float64, want)
		for k := range exp {
			exp[k] = readings[i][k] - base[k]
		}
		pred, _, err := sys.Localize(core.Observation{Features: exp})
		if err != nil {
			t.Fatalf("offline Localize %d: %v", i, err)
		}
		for v := range pred.Proba {
			if math.Float64bits(got.Proba[v]) != math.Float64bits(pred.Proba[v]) {
				t.Fatalf("job %d proba[%d]: batched %v != offline %v", i, v, got.Proba[v], pred.Proba[v])
			}
		}
		if snap := j.Trace(); snap != nil {
			if hasStage(snap, telemetry.StageBatchLead) {
				lead++
			}
			if hasStage(snap, telemetry.StageBatchShare) {
				share++
			}
		}
	}
	st := s.Status()
	if st.Batches < 1 {
		t.Fatalf("observe_batches = %d, want ≥ 1 (no batch formed)", st.Batches)
	}
	if st.BatchedJobs < 2 {
		t.Fatalf("observe_batched_jobs = %d, want ≥ 2", st.BatchedJobs)
	}
	if lead < 1 || share < 1 {
		t.Fatalf("batch provenance stages: %d leaders, %d sharers (want ≥ 1 each)", lead, share)
	}
}

// TestBatchingDisabled pins the BatchMax=1 escape hatch: every Readings
// job resolves its own baseline and the batch counters stay zero.
func TestBatchingDisabled(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, BatchMax: 1})
	sys := s.System()
	hour := 5
	base, err := sys.QuiescentBaseline(hour)
	if err != nil {
		t.Fatalf("QuiescentBaseline: %v", err)
	}
	readings := make([]float64, len(base))
	copy(readings, base)
	for i := 0; i < 3; i++ {
		j, err := s.Submit(ObserveRequest{Readings: readings, PatternHour: &hour, Seed: int64(i + 1)})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		waitResult(t, j)
	}
	if st := s.Status(); st.Batches != 0 || st.BatchedJobs != 0 {
		t.Fatalf("batch counters = (%d, %d) with batching disabled, want (0, 0)", st.Batches, st.BatchedJobs)
	}
	s.mu.Lock()
	boarded := len(s.pending)
	s.mu.Unlock()
	if boarded != 0 {
		t.Fatalf("pending board holds %d hours with batching disabled, want 0", boarded)
	}
}

// TestStatusCountsJobBeforeDone pins the finishJob ordering fix: a
// job's done counter is incremented before its Done channel closes, so
// a caller woken by Done never reads a stale Status. With the old order
// (close, then count) a waiter could read one job short — the done=499
// of 500 flake in the EPA-NET concurrency test.
func TestStatusCountsJobBeforeDone(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, QueueSize: 4})
	feats := testFeatures(s.System(), 13)
	const rounds = 400
	for k := int64(1); k <= rounds; k++ {
		j, err := s.Submit(ObserveRequest{Features: feats})
		if err != nil {
			t.Fatalf("Submit %d: %v", k, err)
		}
		select {
		case <-j.Done():
		case <-time.After(30 * time.Second):
			t.Fatalf("job %d did not finish", k)
		}
		if st := s.Status(); st.Done != k || st.Failed != 0 {
			t.Fatalf("after %d jobs fired Done: Status done=%d failed=%d", k, st.Done, st.Failed)
		}
	}
}
