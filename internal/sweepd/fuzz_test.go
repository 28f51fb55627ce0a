package sweepd_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"testing"
	"time"

	"ucp/internal/runq"
	"ucp/internal/sim"
	"ucp/internal/sweepd"
	"ucp/internal/trace"
)

// FuzzSubmit posts arbitrary bodies to /v1/jobs. Every one must get a
// 200, a 400 or a 503 (queue full), never a panic. The pool's RunJob
// seam returns at once, so admitted jobs cost no simulation.
func FuzzSubmit(f *testing.F) {
	srv := sweepd.New(sweepd.Config{
		Executors: 2,
		Clock:     fakeClock(),
		Pool: runq.Options{
			RunJob: func(runq.Job, sim.ProgressFunc) (sim.Result, error) {
				return sim.Result{Name: "fuzz"}, nil
			},
		},
	})
	f.Cleanup(func() {
		cancel := make(chan struct{})
		go func() { time.Sleep(10 * time.Second); close(cancel) }()
		srv.Shutdown(cancel)
	})
	h := srv.Handler()

	crypto, _ := trace.ProfileByName("crypto01")
	spec := sweepd.JobSpec{Config: sim.Baseline(), Profile: crypto, Warmup: 1000, Measure: 1000}
	spec.Config.WarmupInsts, spec.Config.MeasureInsts = 1000, 1000
	valid, err := json.Marshal(sweepd.SubmitRequest{
		Protocol: sweepd.ProtocolVersion, Model: sim.ModelVersion, Jobs: []sweepd.JobSpec{spec}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("{"))
	f.Add([]byte(`{"protocol":"` + sweepd.ProtocolVersion + `","model":"` + sim.ModelVersion + `","jobs":[]}`))
	f.Add(bytes.Replace(valid, []byte(`"RASEntries":64`), []byte(`"RASEntries":0`), 1))
	f.Add(bytes.Replace(valid, []byte(`"measure":1000`), []byte(`"measure":1000,"segments":4`), 1))
	// Profile fields: a build that would exhaust memory, a trip-count
	// range the generator cannot draw from, and a fraction past one.
	f.Add(bytes.Replace(valid, []byte(`"Funcs":16`), []byte(`"Funcs":2000000000`), 1))
	f.Add(bytes.Replace(valid, []byte(`"LoopTripMean":14`), []byte(`"LoopTripMean":-5`), 1))
	f.Add(bytes.Replace(valid, []byte(`"StreamFrac":0.6`), []byte(`"StreamFrac":1.6`), 1))
	// A BTB of 128 sets, whose tags would not fit their 32-bit words.
	f.Add(bytes.Replace(valid, []byte(`"Entries":65536`), []byte(`"Entries":1024`), 1))
	// A demand predictor with a zero-width tag fold, and one whose
	// history lengths pass the 1024-bit ring.
	f.Add(bytes.Replace(valid, []byte(`"TagBase":8`), []byte(`"TagBase":1`), 1))
	f.Add(bytes.Replace(valid, []byte(`"MaxHist":640`), []byte(`"MaxHist":2000`), 1))
	// Config fields the server does not know: a removed one and a
	// misspelled one.
	f.Add(bytes.Replace(valid, []byte(`"RASEntries":`), []byte(`"InclusiveUop":true,"RASEntries":`), 1))
	f.Add(bytes.Replace(valid, []byte(`"RASEntries":`), []byte(`"WarmupInst":5000,"RASEntries":`), 1))
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusServiceUnavailable:
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
	})
}

// FuzzEventsAfter resumes a finished job's event stream at arbitrary
// ?after= strings. Each must get a 400 (not a non-negative integer) or
// a 200 carrying exactly the job's events whose Seq is above after, in
// order; empty means from the start.
func FuzzEventsAfter(f *testing.F) {
	srv := sweepd.New(sweepd.Config{
		Executors: 1,
		Clock:     fakeClock(),
		Pool: runq.Options{
			RunJob: func(_ runq.Job, hook sim.ProgressFunc) (sim.Result, error) {
				for k := 1; k <= 3; k++ {
					hook(sim.Progress{Stage: sim.StageMeasuring, WindowsDone: k, WindowsTotal: 3})
				}
				return sim.Result{Name: "fuzz"}, nil
			},
		},
	})
	f.Cleanup(func() {
		cancel := make(chan struct{})
		go func() { time.Sleep(10 * time.Second); close(cancel) }()
		srv.Shutdown(cancel)
	})
	h := srv.Handler()

	spec := sweepd.JobSpec{Config: sim.Baseline(), Profile: trace.QuickProfiles()[0], Warmup: 1000, Measure: 1000}
	spec.Config.WarmupInsts, spec.Config.MeasureInsts = 1000, 1000
	body, err := json.Marshal(sweepd.SubmitRequest{
		Protocol: sweepd.ProtocolVersion, Model: sim.ModelVersion, Jobs: []sweepd.JobSpec{spec}})
	if err != nil {
		f.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	var sub sweepd.SubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); rec.Code != http.StatusOK || err != nil || len(sub.IDs) != 1 {
		f.Fatalf("submit: status %d, %v: %s", rec.Code, err, rec.Body)
	}
	events := func(after string) (int, []sweepd.Event) {
		target := "/v1/jobs/" + sub.IDs[0] + "/events?" + url.Values{"after": {after}}.Encode()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		var evs []sweepd.Event
		sc := bufio.NewScanner(rec.Body)
		for rec.Code == http.StatusOK && sc.Scan() {
			var ev sweepd.Event
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				f.Fatalf("after=%q: bad event line %q: %v", after, sc.Text(), err)
			}
			evs = append(evs, ev)
		}
		return rec.Code, evs
	}
	// The stream of a running job ends at its terminal event, so this
	// first read waits for the job to finish.
	code, all := events("")
	if code != http.StatusOK || len(all) == 0 || all[len(all)-1].State != sweepd.StateDone {
		f.Fatalf("full history: status %d, %+v", code, all)
	}
	for _, seed := range []string{"", "0", "1", strconv.Itoa(len(all) - 1), strconv.Itoa(len(all)),
		strconv.Itoa(len(all) + 5), "-1", "+2", "x", "1e3", " 1", "9223372036854775807", "99999999999999999999"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, after string) {
		code, got := events(after)
		n, err := strconv.Atoi(after)
		if after == "" {
			n, err = 0, nil
		}
		if err != nil || n < 0 {
			if code != http.StatusBadRequest {
				t.Fatalf("after=%q: status %d, want 400", after, code)
			}
			return
		}
		want := slices.DeleteFunc(slices.Clone(all), func(ev sweepd.Event) bool { return ev.Seq <= n })
		if code != http.StatusOK || !slices.Equal(got, want) {
			t.Fatalf("after=%q: status %d, events %+v, want 200 with %+v", after, code, got, want)
		}
	})
}
