// Package sweepd is the long-lived multi-tenant simulation service:
// one process owning a single runq.Pool — and through it the shared
// trace programs, the warm-checkpoint store, and the content-addressed
// result cache — serving simulation jobs to any number of concurrent
// clients over a versioned JSON HTTP API.
//
// The serving economics mirror what the content-addressed tiers
// already bought a single process, promoted fleet-wide: most requests
// are cache hits, and the expensive misses are scheduled on a bounded
// queue, deduplicated across clients (concurrent submissions of the
// same job key coalesce onto one in-flight execution), and reused by
// every later tenant. One program build, one warm checkpoint, many
// tenants.
//
// API surface (all under /v1; see DESIGN.md for semantics):
//
//	POST /v1/jobs            submit a batch; idempotent on the job key
//	GET  /v1/jobs/{id}       status + result
//	GET  /v1/jobs/{id}/events streaming NDJSON progress (resumable)
//	GET  /v1/statz           cache/queue/latency counters
//	GET  /v1/healthz         liveness + drain state
package sweepd

import (
	"fmt"

	"ucp/internal/runq"
	"ucp/internal/sim"
	"ucp/internal/stats"
	"ucp/internal/trace"
)

// ProtocolVersion stamps the wire format. Every submit request carries
// it and the server rejects mismatches outright: a client and server
// disagreeing on sim.ModelVersion or the job-key schema would silently
// exchange results computed under different models, which is exactly
// the cache-compatibility bug class the -version flags exist to debug.
const ProtocolVersion = "sweepd-6"

// Job states, in lifecycle order. A job is queued on admission, warming
// once an executor picks it up, measuring when detailed windows start,
// refining when an adaptive run has reached its minimum window count
// and is narrowing its confidence interval, and finally done or failed.
// Coalesced resubmissions observe the original job's state wherever it
// is.
const (
	StateQueued    = "queued"
	StateWarming   = sim.StageWarming
	StateMeasuring = sim.StageMeasuring
	StateRefining  = sim.StageRefining
	StateDone      = "done"
	StateFailed    = "failed"
)

// JobSpec is the wire form of one runq job. Only synthetic-profile
// workloads travel: a recorded trace is server-local state and its
// content digest cannot be resolved client-side, so trace-file jobs
// must run in-process (Spec returns an error for them).
type JobSpec struct {
	Config  sim.Config    `json:"config"`
	Profile trace.Profile `json:"profile"`
	Warmup  uint64        `json:"warmup"`
	Measure uint64        `json:"measure"`
	// Segments > 1 asks the server to run the job through the interval
	// executor (internal/tpar): per segment for full-detail configs, per
	// measured window for fixed-schedule sampled ones, whose window plan
	// comes from the sampling geometry (an adaptive one is a 400).
	// Results are byte-identical whatever worker budget the server has.
	Segments int `json:"segments,omitempty"`
}

// Job converts the spec back to a pool job.
func (s JobSpec) Job() runq.Job {
	return runq.Job{
		Config:   s.Config,
		Profile:  s.Profile,
		Warmup:   s.Warmup,
		Measure:  s.Measure,
		Segments: s.Segments,
	}
}

// Spec converts a pool job to its wire form.
func Spec(j runq.Job) (JobSpec, error) {
	if j.TraceFile != "" {
		return JobSpec{}, fmt.Errorf("sweepd: %s: recorded-trace jobs are server-local; run them in-process", j.TraceFile)
	}
	if j.Boundary != (sim.BoundaryWarm{}) {
		return JobSpec{}, fmt.Errorf("sweepd: %s: Job.Boundary is retired and has no wire form; boundary warming is fixed", j.Config.Name)
	}
	return JobSpec{
		Config:   j.Config,
		Profile:  j.Profile,
		Warmup:   j.Warmup,
		Measure:  j.Measure,
		Segments: j.Segments,
	}, nil
}

// SubmitRequest is the POST /v1/jobs body.
type SubmitRequest struct {
	// Protocol must equal ProtocolVersion.
	Protocol string `json:"protocol"`
	// Model must equal sim.ModelVersion: results are only meaningful to
	// a client built from the same simulator revision.
	Model string    `json:"model"`
	Jobs  []JobSpec `json:"jobs"`
}

// SubmitResponse acknowledges an admitted batch. IDs are the jobs'
// content-addressed runq keys, in submission order; resubmitting an
// identical spec returns the identical ID (idempotency is structural,
// not session state).
type SubmitResponse struct {
	Protocol string   `json:"protocol"`
	Model    string   `json:"model"`
	IDs      []string `json:"ids"`
}

// JobStatus is the GET /v1/jobs/{id} body.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// WindowsDone/WindowsTotal mirror the run's last progress event.
	WindowsDone  int `json:"windows_done"`
	WindowsTotal int `json:"windows_total"`
	// Source and Attempts carry runq provenance once the job finished.
	Source   string `json:"source,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	// Result is set in StateDone, Err in StateFailed.
	Result *sim.Result `json:"result,omitempty"`
	Err    string      `json:"err,omitempty"`
}

// Event is one NDJSON line on the GET /v1/jobs/{id}/events stream.
// Seq increases from 1 per job with no gaps, so a client that lost its
// connection resumes exactly where it left off with ?after=<last seq>.
type Event struct {
	Seq   int    `json:"seq"`
	ID    string `json:"id"`
	State string `json:"state"`
	// WindowsDone/WindowsTotal count completed measurement windows
	// (zero totals while unknown).
	WindowsDone  int `json:"windows_done"`
	WindowsTotal int `json:"windows_total"`
	// HalfWidth is the current relative 95% half-width of the window
	// IPC mean, reported on StateRefining events of adaptive jobs (0
	// elsewhere; +Inf before two windows exist is clamped to 0 on the
	// wire — JSON has no Inf).
	HalfWidth float64 `json:"half_width,omitempty"`
	// ElapsedMS is time since the job was admitted, on the server's
	// injected clock; EtaMS extrapolates the remaining measuring time
	// from window throughput (0 when unknowable).
	ElapsedMS int64 `json:"elapsed_ms"`
	EtaMS     int64 `json:"eta_ms,omitempty"`
	// Err rides the terminal event of a failed job.
	Err string `json:"err,omitempty"`
}

// Statz is the GET /v1/statz body: the ops surface. Everything in it
// is cumulative since server start except the queue/inflight gauges.
type Statz struct {
	Protocol string `json:"protocol"`
	Model    string `json:"model"`
	// UptimeMS is the injected clock's current reading.
	UptimeMS int64 `json:"uptime_ms"`

	// Jobs* count distinct submissions: Coalesced are submissions that
	// attached to an existing job (the fleet-wide dedup at work).
	JobsSubmitted int `json:"jobs_submitted"`
	JobsCoalesced int `json:"jobs_coalesced"`
	JobsDone      int `json:"jobs_done"`
	JobsFailed    int `json:"jobs_failed"`

	// QueueDepth/QueueCap/Inflight are point-in-time gauges; Rejected
	// counts submissions bounced with 503 backpressure.
	QueueDepth int  `json:"queue_depth"`
	QueueCap   int  `json:"queue_cap"`
	Inflight   int  `json:"inflight"`
	Rejected   int  `json:"rejected"`
	Draining   bool `json:"draining"`

	// Pool is the shared result tier: runs executed, memo/disk hits.
	Pool runq.Stats `json:"pool"`
	// Checkpoint tier: functional-warm blobs captured and restored, the
	// bytes of the captured blobs the pool holds in memory, and the
	// blobs the pool failed to write to its checkpoint directory.
	CkptCaptured      int `json:"ckpt_captured"`
	CkptRestored      int `json:"ckpt_restored"`
	CkptBytes         int `json:"ckpt_bytes"`
	CkptWriteFailures int `json:"ckpt_write_failures"`
	// Arenas counts shared decoded trace arenas held by the pool. Only
	// recorded-trace jobs build one, and the server refuses those, so
	// a server reads 0.
	Arenas int `json:"arenas"`

	// Per-stage latency distributions (milliseconds on the injected
	// clock): queue wait, execution, and end-to-end submit→terminal.
	QueueWaitMS *stats.Histogram `json:"queue_wait_ms"`
	RunMS       *stats.Histogram `json:"run_ms"`
	TotalMS     *stats.Histogram `json:"total_ms"`
}

// Health is the GET /v1/healthz body.
type Health struct {
	Status     string `json:"status"` // "ok" or "draining"
	QueueDepth int    `json:"queue_depth"`
	Inflight   int    `json:"inflight"`
}

// ErrorReply is every non-2xx JSON body.
type ErrorReply struct {
	Error string `json:"error"`
}
