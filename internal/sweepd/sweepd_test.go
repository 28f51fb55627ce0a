package sweepd_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ucp/internal/core"
	"ucp/internal/runq"
	"ucp/internal/sim"
	"ucp/internal/sweepd"
	"ucp/internal/sweepd/client"
	"ucp/internal/trace"
)

// fakeClock is a deterministic injected clock: every reading advances
// one millisecond, so latency histograms and ETAs are exercised
// without the wall clock (the wallclock lint holds in tests too).
func fakeClock() runq.Clock {
	var tick atomic.Int64
	return func() time.Duration {
		return time.Duration(tick.Add(1)) * time.Millisecond
	}
}

// testSpec is a small valid job spec (the injected RunJob never
// actually simulates it).
func testSpec(t *testing.T, name string) sweepd.JobSpec {
	t.Helper()
	profs := trace.QuickProfiles()
	cfg := sim.Baseline()
	cfg.Name = name
	cfg.WarmupInsts, cfg.MeasureInsts = 1000, 1000
	return sweepd.JobSpec{Config: cfg, Profile: profs[0], Warmup: 1000, Measure: 1000}
}

// startServer wires a sweepd server behind httptest and returns a
// ready client. The HTTP listener closes with the test; the sweepd
// executors drain through Shutdown.
func startServer(t *testing.T, cfg sweepd.Config) (*sweepd.Server, *httptest.Server, *client.Client) {
	t.Helper()
	if cfg.Clock == nil {
		cfg.Clock = fakeClock()
	}
	srv := sweepd.New(cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		cancel := make(chan struct{})
		go func() { time.Sleep(10 * time.Second); close(cancel) }()
		srv.Shutdown(cancel)
		hs.Close()
	})
	c := client.New(hs.URL)
	c.Backoff = 5 * time.Millisecond
	return srv, hs, c
}

// TestCrossClientSingleFlight is the satellite coverage task: N
// concurrent clients submit the same job key against a live server;
// exactly one pool execution happens, every client gets an identical
// result, and the run is race-clean (the suite runs under -race in
// check.sh).
func TestCrossClientSingleFlight(t *testing.T) {
	const clients = 8
	var execs atomic.Int32
	gate := make(chan struct{})
	_, _, cl := startServer(t, sweepd.Config{
		Executors: 4,
		Pool: runq.Options{
			RunJob: func(runq.Job, sim.ProgressFunc) (sim.Result, error) {
				execs.Add(1)
				<-gate
				return sim.Result{Name: "shared", IPC: 2.25}, nil
			},
		},
	})

	spec := testSpec(t, "shared")
	var wg sync.WaitGroup
	ids := make([]string, clients)
	results := make([]sweepd.JobStatus, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := cl.Submit([]sweepd.JobSpec{spec})
			if err != nil {
				errs[i] = err
				return
			}
			ids[i] = got[0]
			results[i], errs[i] = cl.Wait(got[0], nil)
		}(i)
	}
	// Let every submission land (and coalesce) while the one execution
	// is still in flight, then release it.
	for deadline := 0; deadline < 400; deadline++ {
		st, err := cl.Statz()
		if err == nil && st.JobsSubmitted == clients {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(gate)
	wg.Wait()

	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if ids[i] != ids[0] {
			t.Fatalf("client %d got id %.12s, client 0 got %.12s — idempotency broken", i, ids[i], ids[0])
		}
		if results[i].Result == nil || results[i].Result.IPC != 2.25 {
			t.Fatalf("client %d result: %+v", i, results[i])
		}
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("job executed %d times for %d clients, want exactly 1", n, clients)
	}
	st, err := cl.Statz()
	if err != nil {
		t.Fatalf("statz: %v", err)
	}
	if st.JobsSubmitted != clients || st.JobsCoalesced != clients-1 {
		t.Fatalf("statz submitted=%d coalesced=%d, want %d and %d",
			st.JobsSubmitted, st.JobsCoalesced, clients, clients-1)
	}
	if st.Pool.Runs != 1 {
		t.Fatalf("pool ran %d jobs, want 1", st.Pool.Runs)
	}
}

// TestRemoteMatchesLocalByteIdentical runs a real (tiny) simulation
// both in-process and through the wire and requires byte-identical
// determinism digests — the contract that lets every existing report
// run remote.
func TestRemoteMatchesLocalByteIdentical(t *testing.T) {
	_, _, cl := startServer(t, sweepd.Config{Executors: 2})

	profs := trace.QuickProfiles()
	cfg := sim.Baseline()
	jobs := []runq.Job{
		{Config: cfg, Profile: profs[0], Warmup: 10_000, Measure: 10_000},
		{Config: cfg, Profile: profs[1%len(profs)], Warmup: 10_000, Measure: 10_000},
	}

	local := runq.New(runq.Options{}).RunAll(jobs)
	remote := cl.RunAll(jobs)
	for i := range jobs {
		if local[i].Err != nil || remote[i].Err != nil {
			t.Fatalf("job %d: local err=%v remote err=%v", i, local[i].Err, remote[i].Err)
		}
		ld := local[i].Result.DeterminismDigest()
		rd := remote[i].Result.DeterminismDigest()
		if ld != rd {
			t.Fatalf("job %d digests differ:\nlocal:\n%s\nremote:\n%s", i, ld, rd)
		}
	}
}

// TestStatzReportsCheckpointBytes runs one sampled job for real on a
// checkpointing server: /v1/statz must report the one capture and the
// bytes of the blob the pool now holds.
func TestStatzReportsCheckpointBytes(t *testing.T) {
	srv, _, cl := startServer(t, sweepd.Config{Executors: 1, Pool: runq.Options{Checkpoints: true}})
	cfg := sim.Baseline()
	cfg.Sampling = sim.SamplingConfig{
		Enabled: true, PeriodInsts: 25_000, DetailedInsts: 2_000,
		WarmInsts: 4_000, FFWarmInsts: 8_000,
	}
	job := runq.Job{Config: cfg, Profile: trace.QuickProfiles()[0], Warmup: 50_000, Measure: 50_000}
	if r := cl.RunAll([]runq.Job{job}); r[0].Err != nil {
		t.Fatal(r[0].Err)
	}
	st, err := cl.Statz()
	if err != nil {
		t.Fatalf("statz: %v", err)
	}
	if want := srv.Pool().CheckpointBytes(); st.CkptCaptured != 1 || st.CkptBytes <= 0 || st.CkptBytes != want {
		t.Fatalf("statz captured %d, ckpt_bytes %d; want 1 and the pool's %d", st.CkptCaptured, st.CkptBytes, want)
	}
}

// TestStatzReportsCheckpointWriteFailures points a checkpointing
// server's checkpoint directory at a regular file: the job still
// succeeds from the in-memory checkpoint, and /v1/statz counts the
// blob the store could not write.
func TestStatzReportsCheckpointWriteFailures(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, cl := startServer(t, sweepd.Config{Executors: 1, Pool: runq.Options{Checkpoints: true, CkptDir: file}})
	cfg := sim.Baseline()
	cfg.Sampling = sim.SamplingConfig{
		Enabled: true, PeriodInsts: 25_000, DetailedInsts: 2_000,
		WarmInsts: 4_000, FFWarmInsts: 8_000,
	}
	job := runq.Job{Config: cfg, Profile: trace.QuickProfiles()[0], Warmup: 50_000, Measure: 50_000}
	if r := cl.RunAll([]runq.Job{job}); r[0].Err != nil {
		t.Fatal(r[0].Err)
	}
	st, err := cl.Statz()
	if err != nil {
		t.Fatalf("statz: %v", err)
	}
	if st.CkptCaptured != 1 || st.CkptWriteFailures != 1 {
		t.Fatalf("statz captured %d, ckpt_write_failures %d; want 1 and 1", st.CkptCaptured, st.CkptWriteFailures)
	}
}

// TestKilledClientMidStream kills one tenant's event stream while its
// job is in flight and requires the job, the server, and a second
// tenant's stream to be unaffected.
func TestKilledClientMidStream(t *testing.T) {
	gate := make(chan struct{})
	_, hs, cl := startServer(t, sweepd.Config{
		Executors: 1,
		Pool: runq.Options{
			RunJob: func(_ runq.Job, hook sim.ProgressFunc) (sim.Result, error) {
				hook(sim.Progress{Stage: sim.StageWarming})
				<-gate
				return sim.Result{Name: "slow"}, nil
			},
		},
	})

	ids, err := cl.Submit([]sweepd.JobSpec{testSpec(t, "slow")})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	id := ids[0]

	// Tenant A: open the stream, read one event, then vanish.
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet,
		hs.URL+"/v1/jobs/"+id+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("open stream: %v", err)
	}
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("read first event: %v", err)
	}
	cancel() // kill the client mid-stream
	resp.Body.Close()

	// Tenant B: a normal wait on the same job must still complete.
	done := make(chan error, 1)
	go func() {
		st, err := cl.Wait(id, nil)
		if err == nil && st.State != sweepd.StateDone {
			err = fmt.Errorf("state %q, want done", st.State)
		}
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let B attach while A's corpse is reaped
	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("surviving tenant: %v", err)
	}
	if h, err := cl.Health(); err != nil || h.Status != "ok" {
		t.Fatalf("health after killed client: %+v, %v", h, err)
	}
}

// TestPanickingJobIsolated submits one job that panics every attempt
// and one that succeeds; the panic must fail only its own job.
func TestPanickingJobIsolated(t *testing.T) {
	_, _, cl := startServer(t, sweepd.Config{
		Executors: 2,
		Pool: runq.Options{
			RunJob: func(j runq.Job, _ sim.ProgressFunc) (sim.Result, error) {
				if j.Config.Name == "boom" {
					panic("injected job fault")
				}
				return sim.Result{Name: j.Config.Name, IPC: 1.0}, nil
			},
		},
	})

	ids, err := cl.Submit([]sweepd.JobSpec{testSpec(t, "boom"), testSpec(t, "fine")})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	boom, berr := cl.Wait(ids[0], nil)
	fine, ferr := cl.Wait(ids[1], nil)
	if berr != nil {
		t.Fatalf("waiting on the panicking job: %v", berr)
	}
	if boom.State != sweepd.StateFailed || !strings.Contains(boom.Err, "panic: injected job fault") {
		t.Fatalf("panicking job status: %+v", boom)
	}
	if ferr != nil || fine.State != sweepd.StateDone || fine.Result == nil {
		t.Fatalf("innocent tenant dropped: %+v, %v", fine, ferr)
	}
	st, err := cl.Statz()
	if err != nil || st.JobsFailed != 1 || st.JobsDone != 1 {
		t.Fatalf("statz after panic: %+v, %v", st, err)
	}
}

// TestBackpressure503 pins the bounded queue: a batch larger than the
// remaining queue capacity bounces whole with 503 + Retry-After and
// admits nothing (so an idempotent retry cannot half-duplicate it).
func TestBackpressure503(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	_, hs, cl := startServer(t, sweepd.Config{
		QueueDepth: 2,
		Executors:  1,
		Pool: runq.Options{
			RunJob: func(runq.Job, sim.ProgressFunc) (sim.Result, error) {
				<-gate
				return sim.Result{}, nil
			},
		},
	})

	// Four distinct fresh jobs against a depth-2 queue: guaranteed
	// over capacity no matter how fast the executor drains.
	specs := []sweepd.JobSpec{
		testSpec(t, "a"), testSpec(t, "b"), testSpec(t, "c"), testSpec(t, "d"),
	}
	body, _ := json.Marshal(sweepd.SubmitRequest{
		Protocol: sweepd.ProtocolVersion, Model: sim.ModelVersion, Jobs: specs,
	})
	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without a Retry-After hint")
	}
	st, err := cl.Statz()
	if err != nil || st.Rejected != 1 {
		t.Fatalf("statz rejected=%d, want 1 (%v)", st.Rejected, err)
	}
	if st.JobsSubmitted != 0 {
		t.Fatalf("rejected batch leaked %d admissions", st.JobsSubmitted)
	}

	// Within capacity the same client is served.
	if _, err := cl.Submit(specs[:2]); err != nil {
		t.Fatalf("in-capacity submit after 503: %v", err)
	}
}

// TestEventStreamResume reconnects mid-history with ?after and
// requires exactly-once, gap-free event delivery across the break.
func TestEventStreamResume(t *testing.T) {
	step := make(chan struct{})
	_, hs, cl := startServer(t, sweepd.Config{
		Executors: 1,
		Pool: runq.Options{
			RunJob: func(_ runq.Job, hook sim.ProgressFunc) (sim.Result, error) {
				hook(sim.Progress{Stage: sim.StageWarming, WindowsTotal: 3})
				<-step
				for k := 1; k <= 3; k++ {
					hook(sim.Progress{Stage: sim.StageMeasuring, WindowsDone: k, WindowsTotal: 3})
				}
				return sim.Result{Name: "windows"}, nil
			},
		},
	})

	ids, err := cl.Submit([]sweepd.JobSpec{testSpec(t, "windows")})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	id := ids[0]

	// First connection: read the pre-release history (queued, warming),
	// then drop the connection.
	resp, err := http.Get(hs.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	br := bufio.NewReader(resp.Body)
	var got []sweepd.Event
	for i := 0; i < 2; i++ {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading event %d: %v", i, err)
		}
		var ev sweepd.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		got = append(got, ev)
	}
	resp.Body.Close()
	close(step)

	// Resume after the last seen sequence number; collect to the end.
	st, err := cl.Wait(id, func(ev sweepd.Event) {})
	if err != nil || st.State != sweepd.StateDone {
		t.Fatalf("wait: %+v, %v", st, err)
	}
	resp2, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/events?after=%d", hs.URL, id, got[len(got)-1].Seq))
	if err != nil {
		t.Fatalf("resume stream: %v", err)
	}
	defer resp2.Body.Close()
	sc := bufio.NewScanner(resp2.Body)
	for sc.Scan() {
		var ev sweepd.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad resumed event %q: %v", sc.Text(), err)
		}
		got = append(got, ev)
	}

	for i, ev := range got {
		if ev.Seq != i+1 {
			t.Fatalf("event %d has seq %d — gap or duplicate across the reconnect:\n%+v", i, ev.Seq, got)
		}
	}
	last := got[len(got)-1]
	if last.State != sweepd.StateDone {
		t.Fatalf("last event %+v, want done", last)
	}
	if got[0].State != sweepd.StateQueued || got[1].State != sweepd.StateWarming {
		t.Fatalf("lifecycle prefix wrong: %+v", got[:2])
	}
	sawWindows := false
	for _, ev := range got {
		if ev.State == sweepd.StateMeasuring && ev.WindowsDone > 0 && ev.WindowsTotal == 3 {
			sawWindows = true
		}
	}
	if !sawWindows {
		t.Fatalf("no measuring window counts in %+v", got)
	}
}

// TestRefiningStreamResume covers the adaptive lifecycle state on the
// wire: a job that moves measuring → refining (with per-event
// half-widths) streams gap-free across a dropped connection, resumed
// events carry the same half-widths, and an early adaptive stop leaves
// the done event's window counter where the stop rule ended, not at
// the budget.
func TestRefiningStreamResume(t *testing.T) {
	step := make(chan struct{})
	halves := []float64{0.08, 0.031, 0.018}
	_, hs, cl := startServer(t, sweepd.Config{
		Executors: 1,
		Pool: runq.Options{
			RunJob: func(_ runq.Job, hook sim.ProgressFunc) (sim.Result, error) {
				hook(sim.Progress{Stage: sim.StageWarming, WindowsTotal: 10})
				for k := 1; k <= 3; k++ {
					hook(sim.Progress{Stage: sim.StageMeasuring, WindowsDone: k, WindowsTotal: 10})
				}
				<-step
				// The adaptive tail: refining events carry the shrinking
				// half-width, then the run stops early at 6 of 10 windows.
				for i, h := range halves {
					hook(sim.Progress{Stage: sim.StageRefining, WindowsDone: 4 + i, WindowsTotal: 10, HalfWidth: h})
				}
				return sim.Result{Name: "adaptive"}, nil
			},
		},
	})

	ids, err := cl.Submit([]sweepd.JobSpec{testSpec(t, "adaptive")})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	id := ids[0]

	// First connection: consume the fixed-measuring prefix, then drop
	// before any refining event exists.
	resp, err := http.Get(hs.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	br := bufio.NewReader(resp.Body)
	var got []sweepd.Event
	for i := 0; i < 4; i++ { // queued, warming, measuring 1..2 at least
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading event %d: %v", i, err)
		}
		var ev sweepd.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		got = append(got, ev)
	}
	resp.Body.Close()
	close(step)

	st, err := cl.Wait(id, nil)
	if err != nil || st.State != sweepd.StateDone {
		t.Fatalf("wait: %+v, %v", st, err)
	}
	resp2, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/events?after=%d", hs.URL, id, got[len(got)-1].Seq))
	if err != nil {
		t.Fatalf("resume stream: %v", err)
	}
	defer resp2.Body.Close()
	sc := bufio.NewScanner(resp2.Body)
	for sc.Scan() {
		var ev sweepd.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad resumed event %q: %v", sc.Text(), err)
		}
		got = append(got, ev)
	}

	for i, ev := range got {
		if ev.Seq != i+1 {
			t.Fatalf("event %d has seq %d — gap or duplicate across the reconnect:\n%+v", i, ev.Seq, got)
		}
	}
	var refined []sweepd.Event
	for _, ev := range got {
		if ev.State == sweepd.StateRefining {
			refined = append(refined, ev)
		}
	}
	if len(refined) != len(halves) {
		t.Fatalf("saw %d refining events, want %d: %+v", len(refined), len(halves), got)
	}
	for i, ev := range refined {
		if ev.HalfWidth != halves[i] {
			t.Errorf("refining event %d half_width %g, want %g", i, ev.HalfWidth, halves[i])
		}
		if ev.WindowsDone != 4+i || ev.WindowsTotal != 10 {
			t.Errorf("refining event %d windows %d/%d, want %d/10", i, ev.WindowsDone, ev.WindowsTotal, 4+i)
		}
	}
	last := got[len(got)-1]
	if last.State != sweepd.StateDone {
		t.Fatalf("last event %+v, want done", last)
	}
	if last.WindowsDone != 6 {
		t.Errorf("done event windows_done = %d, want 6 (the adaptive stop point, not the 10-window budget)", last.WindowsDone)
	}
	if last.HalfWidth != 0 {
		t.Errorf("done event carries half_width %g, want 0", last.HalfWidth)
	}
	if st.WindowsDone != 6 {
		t.Errorf("status windows_done = %d, want 6", st.WindowsDone)
	}
}

// TestGracefulShutdown drains in-flight work, refuses new
// submissions, and completes waiting streams.
func TestGracefulShutdown(t *testing.T) {
	gate := make(chan struct{})
	srv, hs, cl := startServer(t, sweepd.Config{
		Executors: 1,
		Pool: runq.Options{
			RunJob: func(runq.Job, sim.ProgressFunc) (sim.Result, error) {
				<-gate
				return sim.Result{Name: "draining"}, nil
			},
		},
	})

	ids, err := cl.Submit([]sweepd.JobSpec{testSpec(t, "draining")})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(nil) }()

	// Draining: new submissions bounce with 503.
	var refused bool
	for i := 0; i < 200; i++ {
		body, _ := json.Marshal(sweepd.SubmitRequest{
			Protocol: sweepd.ProtocolVersion, Model: sim.ModelVersion,
			Jobs: []sweepd.JobSpec{testSpec(t, "late")},
		})
		resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("probe submit: %v", err)
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			refused = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !refused {
		t.Fatal("draining server still admitting jobs")
	}

	close(gate) // let the in-flight job finish
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	st, err := cl.Status(ids[0])
	if err != nil || st.State != sweepd.StateDone {
		t.Fatalf("in-flight job not drained to completion: %+v, %v", st, err)
	}
}

// TestProtocolMismatchRejected pins the version gate on submissions.
func TestProtocolMismatchRejected(t *testing.T) {
	_, hs, _ := startServer(t, sweepd.Config{
		Pool: runq.Options{RunJob: func(runq.Job, sim.ProgressFunc) (sim.Result, error) {
			return sim.Result{}, nil
		}},
	})
	body, _ := json.Marshal(sweepd.SubmitRequest{
		Protocol: "sweepd-0", Model: sim.ModelVersion,
		Jobs: []sweepd.JobSpec{testSpec(t, "old")},
	})
	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

// TestUnknownFieldRejected posts jobs whose config carries a field the
// server does not know: a removed one (InclusiveUop) and a misspelled
// one (WarmupInst). Decoding them leniently would drop the field and run
// a different machine than the one asked for, so each POST gets a 400
// naming the field and nothing reaches the pool.
func TestUnknownFieldRejected(t *testing.T) {
	var execs atomic.Int32
	_, hs, _ := startServer(t, sweepd.Config{
		Pool: runq.Options{RunJob: func(runq.Job, sim.ProgressFunc) (sim.Result, error) {
			execs.Add(1)
			return sim.Result{}, nil
		}},
	})
	valid, err := json.Marshal(sweepd.SubmitRequest{
		Protocol: sweepd.ProtocolVersion, Model: sim.ModelVersion, Jobs: []sweepd.JobSpec{testSpec(t, "unknown")},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"InclusiveUop":true`, `"WarmupInst":5000`} {
		body := bytes.Replace(valid, []byte(`"RASEntries":`), []byte(field+`,"RASEntries":`), 1)
		if bytes.Equal(body, valid) {
			t.Fatal("config JSON has no RASEntries key to edit")
		}
		resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		name, _, _ := strings.Cut(field, ":")
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), strings.Trim(name, `"`)) {
			t.Fatalf("%s: status %d (%s), want 400 naming the field", field, resp.StatusCode, msg)
		}
	}
	if n := execs.Load(); n != 0 {
		t.Fatalf("rejected jobs ran %d times", n)
	}
}

// TestStatzPoolKeys reads the raw /v1/statz body: the pool object is
// keyed in snake_case, like the rest of statz.
func TestStatzPoolKeys(t *testing.T) {
	_, hs, _ := startServer(t, sweepd.Config{})
	resp, err := http.Get(hs.URL + "/v1/statz")
	if err != nil {
		t.Fatalf("statz: %v", err)
	}
	defer resp.Body.Close()
	var body struct {
		Pool map[string]json.RawMessage `json:"pool"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range body.Pool {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	want := []string{"disk_hits", "failures", "memo_hits", "retries", "runs", "write_failures"}
	if !slices.Equal(keys, want) {
		t.Fatalf("statz pool keys %q, want %q", keys, want)
	}
}

// TestInvalidProfileRejected posts batches whose profile the generator
// cannot build: a program far past the code cap (built, it would ask
// the server for gigabytes) and a negative loop trip mean (its build
// would panic drawing a trip count). Admission validates the profile,
// so each POST gets a 400 naming the job and nothing reaches the pool.
func TestInvalidProfileRejected(t *testing.T) {
	var execs atomic.Int32
	_, hs, _ := startServer(t, sweepd.Config{
		Pool: runq.Options{RunJob: func(runq.Job, sim.ProgressFunc) (sim.Result, error) {
			execs.Add(1)
			return sim.Result{}, nil
		}},
	})
	for _, edit := range []func(p *trace.Profile){
		func(p *trace.Profile) { p.Funcs = 2_000_000_000 },
		func(p *trace.Profile) { p.LoopTripMean, p.FixedTripFrac = -4, 0.5 },
	} {
		spec := testSpec(t, "badprofile")
		edit(&spec.Profile)
		body, _ := json.Marshal(sweepd.SubmitRequest{
			Protocol: sweepd.ProtocolVersion, Model: sim.ModelVersion,
			Jobs: []sweepd.JobSpec{testSpec(t, "fine"), spec},
		})
		resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "job 1 (badprofile)") {
			t.Fatalf("status %d, body %s; want a 400 naming job 1", resp.StatusCode, msg)
		}
	}
	if n := execs.Load(); n != 0 {
		t.Fatalf("rejected batches ran %d jobs", n)
	}
}

// TestTagWidthGeometryRejected posts configs whose BTB or LLC has too
// few sets for a tag to fit its 32-bit word (isa.AddrBits); each POST
// gets a 400 naming the job, and nothing reaches the pool.
func TestTagWidthGeometryRejected(t *testing.T) {
	var execs atomic.Int32
	_, hs, _ := startServer(t, sweepd.Config{
		Pool: runq.Options{RunJob: func(runq.Job, sim.ProgressFunc) (sim.Result, error) {
			execs.Add(1)
			return sim.Result{}, nil
		}},
	})
	for _, edit := range []func(c *sim.Config){
		func(c *sim.Config) { c.BTB.Entries = 1024 },
		func(c *sim.Config) { c.Memory.LLC.Ways = c.Memory.LLC.SizeBytes / 64 },
	} {
		spec := testSpec(t, "narrowtags")
		edit(&spec.Config)
		body, _ := json.Marshal(sweepd.SubmitRequest{
			Protocol: sweepd.ProtocolVersion, Model: sim.ModelVersion,
			Jobs: []sweepd.JobSpec{testSpec(t, "fine"), spec},
		})
		resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "job 1 (narrowtags)") || !strings.Contains(string(msg), "tag") {
			t.Fatalf("status %d, body %s; want a 400 naming job 1 and its tags", resp.StatusCode, msg)
		}
	}
	if n := execs.Load(); n != 0 {
		t.Fatalf("rejected batches ran %d jobs", n)
	}
}

// TestPredictorHistoryGeometryRejected posts configs whose demand
// predictor or Alt-BP would need a zero-width tag fold or a history
// longer than the 1024-bit ring; each POST gets a 400 naming the job
// and the bound, and nothing reaches the pool.
func TestPredictorHistoryGeometryRejected(t *testing.T) {
	var execs atomic.Int32
	_, hs, _ := startServer(t, sweepd.Config{
		Pool: runq.Options{RunJob: func(runq.Job, sim.ProgressFunc) (sim.Result, error) {
			execs.Add(1)
			return sim.Result{}, nil
		}},
	})
	for _, tc := range []struct {
		edit func(c *sim.Config)
		want string
	}{
		{func(c *sim.Config) { c.Pred.Tage.TagBase = 1 }, "TagBase"},
		{func(c *sim.Config) { c.Pred.Tage.MaxHist = 2000 }, "history ring"},
		{func(c *sim.Config) {
			u := core.DefaultConfig()
			u.AltBP.Tage.TagBase = 1
			c.UCP = &u
		}, "TagBase"},
	} {
		spec := testSpec(t, "longhist")
		tc.edit(&spec.Config)
		body, _ := json.Marshal(sweepd.SubmitRequest{
			Protocol: sweepd.ProtocolVersion, Model: sim.ModelVersion,
			Jobs: []sweepd.JobSpec{testSpec(t, "fine"), spec},
		})
		resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "job 1 (longhist)") || !strings.Contains(string(msg), tc.want) {
			t.Fatalf("status %d, body %s; want a 400 naming job 1 and %q", resp.StatusCode, msg, tc.want)
		}
	}
	if n := execs.Load(); n != 0 {
		t.Fatalf("rejected batches ran %d jobs", n)
	}
}

// TestJobValidatedAsRun posts jobs whose config passes on its own but
// not as the job runs it: the spec's budgets replace the config's, and
// the segment count must compose with the sampling geometry. Each POST
// gets a 400 naming the job and the reason, and the pool runs nothing.
func TestJobValidatedAsRun(t *testing.T) {
	srv, hs, _ := startServer(t, sweepd.Config{
		Pool: runq.Options{RunJob: func(runq.Job, sim.ProgressFunc) (sim.Result, error) {
			return sim.Result{}, nil
		}},
	})
	sampled := func(warmInsts uint64) sweepd.JobSpec {
		spec := testSpec(t, "asrun")
		spec.Config.Sampling = sim.SamplingConfig{Enabled: true, PeriodInsts: 10_000, DetailedInsts: 2_000, WarmInsts: warmInsts}
		spec.Warmup, spec.Measure = 10_000, 40_000
		spec.Config.WarmupInsts, spec.Config.MeasureInsts = spec.Warmup, spec.Measure
		return spec
	}
	for _, tc := range []struct {
		name string
		edit func(s *sweepd.JobSpec)
		want string
	}{
		{"per-window warm under the boundary floor", func(s *sweepd.JobSpec) {
			*s = sampled(500)
			s.Segments = 4
		}, "requires Sampling.WarmInsts"},
		{"period past the job's measure", func(s *sweepd.JobSpec) {
			*s = sampled(2_000)
			s.Config.Sampling.PeriodInsts = 50_000
			s.Config.MeasureInsts, s.Measure = 100_000, 30_000
		}, "PeriodInsts 50000 exceeds MeasureInsts 30000"},
		{"adaptive window-parallel", func(s *sweepd.JobSpec) {
			*s = sampled(2_000)
			s.Config.Sampling.TargetCI = 0.05
			s.Segments = 2
		}, "drop -segments or -adaptive"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := testSpec(t, "asrun")
			tc.edit(&spec)
			if err := spec.Config.Validate(); err != nil {
				t.Fatalf("probe config invalid on its own budgets: %v", err)
			}
			body, _ := json.Marshal(sweepd.SubmitRequest{
				Protocol: sweepd.ProtocolVersion, Model: sim.ModelVersion,
				Jobs: []sweepd.JobSpec{testSpec(t, "fine"), spec},
			})
			resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "job 1 (asrun)") || !strings.Contains(string(msg), tc.want) {
				t.Fatalf("status %d, body %s; want a 400 naming job 1 and %q", resp.StatusCode, msg, tc.want)
			}
		})
	}
	if runs := srv.Pool().Stats().Runs; runs != 0 {
		t.Fatalf("rejected batches ran %d jobs", runs)
	}
}

// TestSpecRejectsRetiredBoundary: runq.Job.Boundary has no wire form,
// so a job carrying a non-zero value must fail to convert instead of
// silently running remotely with the fixed boundary warm.
func TestSpecRejectsRetiredBoundary(t *testing.T) {
	job := runq.Job{Config: sim.Baseline(), Profile: trace.QuickProfiles()[0], Warmup: 1000, Measure: 1000, Segments: 4}
	if _, err := sweepd.Spec(job); err != nil {
		t.Fatalf("zero Boundary rejected: %v", err)
	}
	job.Boundary = sim.DefaultBoundaryWarm()
	if _, err := sweepd.Spec(job); err == nil || !strings.Contains(err.Error(), "retired") {
		t.Fatalf("non-zero Boundary converted: err = %v", err)
	}
}

// TestIdempotentResubmit submits the same spec after completion and
// requires the same ID back with the result served from the memo tier
// (no second execution).
func TestIdempotentResubmit(t *testing.T) {
	var execs atomic.Int32
	_, _, cl := startServer(t, sweepd.Config{
		Pool: runq.Options{RunJob: func(runq.Job, sim.ProgressFunc) (sim.Result, error) {
			execs.Add(1)
			return sim.Result{Name: "idem", IPC: 3.0}, nil
		}},
	})
	spec := testSpec(t, "idem")
	first, err := cl.Submit([]sweepd.JobSpec{spec})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := cl.Wait(first[0], nil); err != nil {
		t.Fatalf("wait: %v", err)
	}
	second, err := cl.Submit([]sweepd.JobSpec{spec})
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if second[0] != first[0] {
		t.Fatalf("resubmission minted a new id: %.12s vs %.12s", second[0], first[0])
	}
	st, err := cl.Wait(second[0], nil)
	if err != nil || st.Result == nil || st.Result.IPC != 3.0 {
		t.Fatalf("resubmitted result: %+v, %v", st, err)
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("resubmission re-executed: %d runs", n)
	}
}
