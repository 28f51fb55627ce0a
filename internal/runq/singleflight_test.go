package runq

import (
	"sync"
	"sync/atomic"
	"testing"

	"ucp/internal/sim"
)

// TestRunOneSingleFlight pins the pool-level single-flight: N
// goroutines racing RunOne on the same key must produce exactly one
// execution, with everyone else coalescing onto the leader's published
// result. This is the in-process half of the sweepd cross-client dedup
// contract (the HTTP half lives in internal/sweepd's tests).
func TestRunOneSingleFlight(t *testing.T) {
	const callers = 16
	var execs atomic.Int32
	gate := make(chan struct{})
	p := New(Options{
		RunJob: func(Job, sim.ProgressFunc) (sim.Result, error) {
			execs.Add(1)
			<-gate // hold the flight open until every caller has arrived
			return sim.Result{Name: "sf", IPC: 1.5}, nil
		},
	})
	jobs := quickJobs(1000, 1000)[:1]

	var started, finished sync.WaitGroup
	results := make([]JobResult, callers)
	for i := 0; i < callers; i++ {
		started.Add(1)
		finished.Add(1)
		go func(i int) {
			defer finished.Done()
			started.Done()
			results[i] = p.RunOne(jobs[0], nil)
		}(i)
	}
	started.Wait()
	close(gate)
	finished.Wait()

	if n := execs.Load(); n != 1 {
		t.Fatalf("runJob executed %d times under %d concurrent RunOne calls, want 1", n, callers)
	}
	for i, jr := range results {
		if jr.Err != nil {
			t.Fatalf("caller %d: %v", i, jr.Err)
		}
		if jr.Result.Name != "sf" || jr.Result.IPC != 1.5 {
			t.Fatalf("caller %d got a different result: %+v", i, jr.Result)
		}
	}
	st := p.Stats()
	if st.Runs != 1 {
		t.Fatalf("stats.Runs = %d, want 1", st.Runs)
	}
	if st.MemoHits != callers-1 {
		t.Fatalf("stats.MemoHits = %d, want %d", st.MemoHits, callers-1)
	}
}

// TestRunOneFailurePublishes pins that a failing leader still releases
// coalesced waiters with the memoized error instead of deadlocking the
// flight.
func TestRunOneFailurePublishes(t *testing.T) {
	var execs atomic.Int32
	p := New(Options{
		RunJob: func(Job, sim.ProgressFunc) (sim.Result, error) {
			execs.Add(1)
			panic("injected fault")
		},
	})
	jobs := quickJobs(1000, 1000)[:1]

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = p.RunOne(jobs[0], nil).Err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("caller %d: expected the memoized failure, got nil", i)
		}
	}
	// One leader, one attempt; everyone else memo-hits the error.
	if n := execs.Load(); n != 1 {
		t.Fatalf("runJob executed %d times, want 1 (one leader, no retry)", n)
	}
}

// TestRunOneProgressHook pins that a real (tiny) simulation drives the
// warming → measuring stage sequence through the hook.
func TestRunOneProgressHook(t *testing.T) {
	p := New(Options{})
	jobs := quickJobs(5_000, 5_000)[:1]
	var stages []string
	jr := p.RunOne(jobs[0], func(pr sim.Progress) {
		if n := len(stages); n == 0 || stages[n-1] != pr.Stage {
			stages = append(stages, pr.Stage)
		}
	})
	if jr.Err != nil {
		t.Fatalf("RunOne: %v", jr.Err)
	}
	want := []string{sim.StageWarming, sim.StageMeasuring}
	if len(stages) != len(want) || stages[0] != want[0] || stages[1] != want[1] {
		t.Fatalf("stage sequence %v, want %v", stages, want)
	}
}
