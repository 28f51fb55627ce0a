package sweepd

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"ucp/internal/runq"
	"ucp/internal/sim"
	"ucp/internal/stats"
)

// Config configures a Server.
type Config struct {
	// Pool configures the one shared runq pool (result cache dir,
	// checkpoint dir, worker bound). The server uses it as given and
	// enables no tier itself; cmd/sweepd turns Checkpoints on, since
	// the point of serving is tier sharing.
	Pool runq.Options
	// QueueDepth bounds jobs admitted but not yet executing; past it,
	// submissions bounce with 503 + Retry-After (default 256).
	QueueDepth int
	// Executors bounds concurrently executing jobs (default
	// Pool.Workers, or GOMAXPROCS when that is unset too). Each
	// executor drives one pool execution at a time; the pool's own
	// single-flight dedups identical keys across them.
	Executors int
	// Clock supplies elapsed-since-start readings for ETAs, latency
	// histograms, and log lines. The server itself never reads the
	// wall clock (ucplint wallclock rule) — cmd/sweepd wires
	// time.Since behind it; a nil Clock reads zero forever.
	Clock runq.Clock
	// RequestTimeout is the per-request deadline on the non-streaming
	// endpoints (default 30s). Event streams are exempt: they live as
	// long as the job plus the client's interest.
	RequestTimeout time.Duration
	// RetryAfter is the backpressure hint sent with 503 responses
	// (default 2s, rounded up to whole seconds on the wire).
	RetryAfter time.Duration
	// Log receives one line per lifecycle transition (nil: silent).
	Log io.Writer
}

// jobState is the server-side lifecycle record of one distinct job key.
type jobState struct {
	id   string
	job  runq.Job
	spec JobSpec

	state        string
	windowsDone  int
	windowsTotal int
	halfWidth    float64 // current relative CI half-width (refining only)

	submitted time.Duration // clock at admission
	started   time.Duration // clock when an executor picked it up
	measuring time.Duration // clock at the first measuring event

	result *runq.JobResult // terminal outcome (done or failed)

	// events is the append-only progress history; seq = index + 1.
	// notify is closed and replaced on every append, so any number of
	// streamers can wait for "something new" without per-subscriber
	// bookkeeping — a dead client simply stops re-arming its wait.
	events []Event
	notify chan struct{}
}

// Server owns the pool and the job registry. All mutable state is
// guarded by mu; executor goroutines and HTTP handler goroutines share
// it only through the annotated guarded methods.
type Server struct {
	cfg  Config
	pool *runq.Pool

	queue chan *jobState

	mu        sync.Mutex
	jobs      map[string]*jobState
	qdepth    int // jobs admitted, not yet picked up
	inflight  int // jobs executing right now
	submitted int
	coalesced int
	finished  int
	failed    int
	rejected  int
	streams   int
	draining  bool
	closed    bool

	qwaitH *stats.Histogram
	runH   *stats.Histogram
	totalH *stats.Histogram

	wg sync.WaitGroup // executor goroutines
}

// New builds a server and starts its executors. Callers serve
// Handler() on a listener of their choice and must call Shutdown to
// drain.
func New(cfg Config) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.Executors <= 0 {
		cfg.Executors = cfg.Pool.Workers
	}
	if cfg.Executors <= 0 {
		cfg.Executors = runtime.GOMAXPROCS(0)
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 2 * time.Second
	}
	s := &Server{
		cfg:    cfg,
		pool:   runq.New(cfg.Pool),
		queue:  make(chan *jobState, cfg.QueueDepth),
		jobs:   make(map[string]*jobState),
		qwaitH: stats.NewHistogram("sweepd queue wait (ms)"),
		runH:   stats.NewHistogram("sweepd execution (ms)"),
		totalH: stats.NewHistogram("sweepd end-to-end (ms)"),
	}
	for i := 0; i < cfg.Executors; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for js := range s.queue {
				s.run(js)
			}
		}()
	}
	return s
}

// Pool exposes the shared pool (the in-process side of a paired
// local/remote gate runs on it directly).
func (s *Server) Pool() *runq.Pool { return s.pool }

// now reads the injected clock (zero when none is wired).
func (s *Server) now() time.Duration {
	if s.cfg.Clock == nil {
		return 0
	}
	return s.cfg.Clock()
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		fmt.Fprintf(s.cfg.Log, "sweepd: "+format+"\n", args...)
	}
}

// Handler returns the versioned API surface. Non-streaming endpoints
// run under the per-request deadline; the events stream is exempt.
func (s *Server) Handler() http.Handler {
	bounded := func(h http.HandlerFunc) http.Handler {
		return http.TimeoutHandler(h, s.cfg.RequestTimeout, `{"error":"request deadline exceeded"}`)
	}
	mux := http.NewServeMux()
	mux.Handle("POST /v1/jobs", bounded(s.handleSubmit))
	mux.Handle("GET /v1/jobs/{id}", bounded(s.handleStatus))
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.Handle("GET /v1/statz", bounded(s.handleStatz))
	mux.Handle("GET /v1/healthz", bounded(s.handleHealthz))
	return mux
}

// Shutdown drains the server gracefully: new submissions are refused
// with 503, queued and in-flight jobs run to completion (their results
// land in the pool's disk cache when one is configured), and event
// streams see their terminal events. It returns nil once every
// executor has exited, or the done channel's error if closed first.
// Safe to call once; later calls return immediately.
func (s *Server) Shutdown(cancel <-chan struct{}) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.closed = true
	// No sender can race this close: every send happens under mu with
	// draining checked first.
	close(s.queue)
	s.mu.Unlock()
	s.logf("draining: refusing new submissions, finishing queued work")

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		s.logf("drained")
		return nil
	case <-cancel:
		return fmt.Errorf("sweepd: shutdown canceled with work still in flight")
	}
}

// ---- submission ----

// handleSubmit admits a batch: content-addressed key per job, dedup
// against every job the server has ever seen, bounded-queue
// backpressure, all-or-nothing admission (so a retried 503 cannot
// half-duplicate a batch). An unknown field is a 400: a config field
// the server does not know would otherwise be dropped, and the job
// would run a different machine than the one asked for.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		replyError(w, http.StatusBadRequest, fmt.Sprintf("decoding submit request: %v", err))
		return
	}
	if req.Protocol != ProtocolVersion {
		replyError(w, http.StatusBadRequest, fmt.Sprintf(
			"protocol mismatch: client %q, server %q", req.Protocol, ProtocolVersion))
		return
	}
	if req.Model != sim.ModelVersion {
		replyError(w, http.StatusBadRequest, fmt.Sprintf(
			"model mismatch: client %q, server %q — results would not be comparable", req.Model, sim.ModelVersion))
		return
	}
	if len(req.Jobs) == 0 {
		replyError(w, http.StatusBadRequest, "empty job batch")
		return
	}
	// Resolve keys and validate jobs and profiles before taking the
	// lock: a bad job rejects the batch with a 400 naming the offender,
	// not a failure — or an out-of-memory program build — from the
	// middle of execution. A job is validated as it will run: the
	// spec's budgets, not the config's own, and its segment count.
	ids := make([]string, len(req.Jobs))
	jobs := make([]runq.Job, len(req.Jobs))
	for i, spec := range req.Jobs {
		jobs[i] = spec.Job()
		err := jobs[i].Validate()
		if err == nil {
			err = spec.Profile.Validate()
		}
		if err != nil {
			replyError(w, http.StatusBadRequest, fmt.Sprintf("job %d (%s): %v", i, spec.Config.Name, err))
			return
		}
		key, err := runq.Key(jobs[i])
		if err != nil {
			replyError(w, http.StatusBadRequest, fmt.Sprintf("job %d (%s): %v", i, spec.Config.Name, err))
			return
		}
		ids[i] = key
	}

	admitted, retryAfter := s.admit(req.Jobs, jobs, ids)
	if !admitted {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
		replyError(w, http.StatusServiceUnavailable, "queue full or draining; retry later")
		return
	}
	replyJSON(w, http.StatusOK, SubmitResponse{
		Protocol: ProtocolVersion,
		Model:    sim.ModelVersion,
		IDs:      ids,
	})
}

// admit registers a batch under the lock. Jobs whose key is already
// known (any state) coalesce onto the existing execution; genuinely
// new jobs consume queue slots. Admission is all-or-nothing against
// the remaining queue capacity.
//
//ucplint:guarded
func (s *Server) admit(specs []JobSpec, jobs []runq.Job, ids []string) (ok bool, retryAfterSec int) {
	retryAfterSec = int((s.cfg.RetryAfter + time.Second - 1) / time.Second)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false, retryAfterSec
	}
	fresh := 0
	seen := make(map[string]bool, len(ids))
	for _, id := range ids {
		if s.jobs[id] == nil && !seen[id] {
			seen[id] = true
			fresh++
		}
	}
	if s.qdepth+fresh > s.cfg.QueueDepth {
		s.rejected++
		return false, retryAfterSec
	}
	now := s.now()
	for i, id := range ids {
		s.submitted++
		if js := s.jobs[id]; js != nil {
			s.coalesced++
			continue
		}
		js := &jobState{
			id:        id,
			job:       jobs[i],
			spec:      specs[i],
			state:     StateQueued,
			submitted: now,
			notify:    make(chan struct{}),
		}
		s.jobs[id] = js
		s.publishLocked(js, StateQueued, "")
		s.qdepth++
		s.queue <- js // never blocks: qdepth <= QueueDepth == cap
		s.logf("job %.12s queued (%s on %s)", id, js.job.Config.Name, js.spec.Profile.Name)
	}
	return true, retryAfterSec
}

// ---- execution ----

// run executes one job on an executor goroutine. Panics anywhere in
// the job body are already errors at the pool layer (recoverRun); this
// recover is the second fence, isolating even a bug in the server's
// own bookkeeping to the one job so other tenants keep their service.
//
//ucplint:guarded
func (s *Server) run(js *jobState) {
	defer func() {
		if r := recover(); r != nil {
			s.finish(js, runq.JobResult{Job: js.job, Key: js.id,
				Err: fmt.Errorf("internal: %v", r)})
		}
	}()

	s.mu.Lock()
	s.qdepth--
	s.inflight++
	js.started = s.now()
	s.qwaitH.Add(uint64((js.started - js.submitted).Milliseconds()))
	s.mu.Unlock()

	jr := s.pool.RunOne(js.job, func(pr sim.Progress) { s.progress(js, pr) })
	s.finish(js, jr)
}

// progress relays a simulation stage notification into the job's event
// stream. It runs on the executor goroutine, synchronously with the
// simulation — keep it O(1).
//
//ucplint:guarded
func (s *Server) progress(js *jobState, pr sim.Progress) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if pr.Stage == StateMeasuring && js.state != StateMeasuring {
		js.measuring = s.now()
	}
	// JSON has no Inf: the pre-two-window half-width flattens to 0 on
	// the wire (the client renders 0 as "no estimate yet").
	half := pr.HalfWidth
	if math.IsInf(half, 1) {
		half = 0
	}
	if js.state == pr.Stage && js.windowsDone == pr.WindowsDone &&
		js.windowsTotal == pr.WindowsTotal && js.halfWidth == half {
		return
	}
	js.state = pr.Stage
	js.windowsDone = pr.WindowsDone
	js.windowsTotal = pr.WindowsTotal
	js.halfWidth = half
	s.publishLocked(js, pr.Stage, "")
}

// finish records a terminal outcome and publishes the final event.
//
//ucplint:guarded
func (s *Server) finish(js *jobState, jr runq.JobResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if js.result != nil {
		return // second fence already fired for this job
	}
	s.inflight--
	now := s.now()
	s.runH.Add(uint64((now - js.started).Milliseconds()))
	s.totalH.Add(uint64((now - js.submitted).Milliseconds()))
	js.result = &jr
	if jr.Err != nil {
		s.failed++
		js.state = StateFailed
		s.publishLocked(js, StateFailed, jr.Err.Error())
		s.logf("job %.12s FAILED after %dms: %v", js.id, (now - js.submitted).Milliseconds(), jr.Err)
		return
	}
	s.finished++
	// A fixed-geometry job always ran its whole schedule; an adaptive
	// one (last seen refining) may have stopped early, so its window
	// counter stays wherever the stop rule left it.
	if js.state != StateRefining && js.windowsTotal > 0 {
		js.windowsDone = js.windowsTotal
	}
	js.state = StateDone
	s.publishLocked(js, StateDone, "")
	s.logf("job %.12s done in %dms (%s, queue %dms)", js.id,
		(now - js.submitted).Milliseconds(), jr.Source, (js.started - js.submitted).Milliseconds())
}

// publishLocked appends one event and wakes every waiting streamer.
// Callers hold s.mu.
func (s *Server) publishLocked(js *jobState, state string, errText string) {
	ev := Event{
		Seq:          len(js.events) + 1,
		ID:           js.id,
		State:        state,
		WindowsDone:  js.windowsDone,
		WindowsTotal: js.windowsTotal,
		ElapsedMS:    (s.now() - js.submitted).Milliseconds(),
		Err:          errText,
	}
	if state == StateRefining {
		ev.HalfWidth = js.halfWidth
	}
	// ETA: extrapolate remaining measuring time from window throughput.
	if state == StateMeasuring && js.windowsDone > 0 && js.windowsDone < js.windowsTotal {
		perWindow := float64(s.now()-js.measuring) / float64(js.windowsDone)
		ev.EtaMS = time.Duration(perWindow * float64(js.windowsTotal-js.windowsDone)).Milliseconds()
	}
	js.events = append(js.events, ev)
	close(js.notify)
	js.notify = make(chan struct{})
}

// ---- read endpoints ----

// lookup fetches a job by id.
//
//ucplint:guarded
func (s *Server) lookup(id string) *jobState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// status snapshots a job's wire status.
//
//ucplint:guarded
func (s *Server) status(js *jobState) JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := JobStatus{
		ID:           js.id,
		State:        js.state,
		WindowsDone:  js.windowsDone,
		WindowsTotal: js.windowsTotal,
	}
	if jr := js.result; jr != nil {
		st.Source = jr.Source
		st.Attempts = jr.Attempts
		if jr.Err != nil {
			st.Err = jr.Err.Error()
		} else {
			res := jr.Result
			st.Result = &res
		}
	}
	return st
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	js := s.lookup(r.PathValue("id"))
	if js == nil {
		replyError(w, http.StatusNotFound, "unknown job id")
		return
	}
	replyJSON(w, http.StatusOK, s.status(js))
}

// handleEvents streams a job's progress as NDJSON, one Event per line,
// from ?after=<seq> (default 0: the whole history). The stream ends
// after the terminal event. A client that vanishes mid-stream costs
// nothing but its dead connection: the job and every other stream keep
// going, and the client resumes later with after=<last seen seq>.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	js := s.lookup(r.PathValue("id"))
	if js == nil {
		replyError(w, http.StatusNotFound, "unknown job id")
		return
	}
	after := 0
	if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			replyError(w, http.StatusBadRequest, "bad after parameter")
			return
		}
		after = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	s.trackStream(+1)
	defer s.trackStream(-1)

	enc := json.NewEncoder(w)
	cursor := after
	for {
		batch, notify, terminal := s.eventsSince(js, cursor)
		for _, ev := range batch {
			if err := enc.Encode(ev); err != nil {
				return // client went away; the job does not care
			}
			cursor = ev.Seq
		}
		if flusher != nil {
			flusher.Flush()
		}
		if terminal {
			// The terminal event is always the last publish, so once the
			// batch containing it (or an empty post-terminal batch) has
			// been flushed there is nothing left to wait for.
			return
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		}
	}
}

// eventsSince returns events with Seq > cursor, the wait channel for
// more, and whether the job has reached a terminal state.
//
//ucplint:guarded
func (s *Server) eventsSince(js *jobState, cursor int) ([]Event, <-chan struct{}, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var batch []Event
	if cursor < len(js.events) {
		batch = append(batch, js.events[cursor:]...)
	}
	terminal := js.state == StateDone || js.state == StateFailed
	return batch, js.notify, terminal
}

// trackStream maintains the active-streams gauge.
//
//ucplint:guarded
func (s *Server) trackStream(d int) {
	s.mu.Lock()
	s.streams += d
	s.mu.Unlock()
}

// handleStatz renders the ops counters. The whole snapshot is
// marshaled under the lock so the histograms cannot tear mid-encode.
func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	b, err := s.statzJSON()
	if err != nil {
		replyError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
}

// statzJSON snapshots and encodes the Statz reply.
//
//ucplint:guarded
func (s *Server) statzJSON() ([]byte, error) {
	captured, restored := s.pool.CheckpointStats()
	ckptBytes := s.pool.CheckpointBytes()
	ckptWriteFailures := s.pool.CheckpointWriteFailures()
	arenas := s.pool.ArenaCount()
	pool := s.pool.Stats()
	s.mu.Lock()
	defer s.mu.Unlock()
	return json.Marshal(Statz{
		Protocol:          ProtocolVersion,
		Model:             sim.ModelVersion,
		UptimeMS:          s.now().Milliseconds(),
		JobsSubmitted:     s.submitted,
		JobsCoalesced:     s.coalesced,
		JobsDone:          s.finished,
		JobsFailed:        s.failed,
		QueueDepth:        s.qdepth,
		QueueCap:          s.cfg.QueueDepth,
		Inflight:          s.inflight,
		Rejected:          s.rejected,
		Draining:          s.draining,
		Pool:              pool,
		CkptCaptured:      captured,
		CkptRestored:      restored,
		CkptBytes:         ckptBytes,
		CkptWriteFailures: ckptWriteFailures,
		Arenas:            arenas,
		QueueWaitMS:       s.qwaitH,
		RunMS:             s.runH,
		TotalMS:           s.totalH,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := Health{Status: "ok", QueueDepth: s.qdepth, Inflight: s.inflight}
	if s.draining {
		h.Status = "draining"
	}
	s.mu.Unlock()
	replyJSON(w, http.StatusOK, h)
}

// ---- shared reply helpers ----

func replyJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func replyError(w http.ResponseWriter, code int, msg string) {
	replyJSON(w, code, ErrorReply{Error: msg})
}
