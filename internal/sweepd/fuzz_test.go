package sweepd_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ucp/internal/runq"
	"ucp/internal/sim"
	"ucp/internal/sweepd"
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

	spec := sweepd.JobSpec{Config: sim.Baseline(), Warmup: 1000, Measure: 1000}
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
