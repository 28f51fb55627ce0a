package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"ucp/internal/runq"
	"ucp/internal/sweepd"
	"ucp/internal/sweepd/client"
)

// The sweepd gate: the same crypto01 threshold-ablation sweep the
// sweep-reuse gate uses, run three ways in this one process —
// in-process on a local pool, remotely through a sweepd server on a
// loopback listener (cold: the server executes every job), and
// remotely again (warm: every submission coalesces onto the server's
// finished jobs, nothing re-executes). Local and remote passes use
// identical pool tiers (warm checkpoints).
//
// Gated bounds, also documented in EXPERIMENTS.md:
//   - wire neutrality: every config's determinism digest must be
//     byte-identical local vs remote (the JSON round-trip over the
//     API is lossless);
//   - the server executes each distinct job exactly once across both
//     remote passes (fleet-wide dedup), with the whole second pass
//     served from its caches;
//   - the server's checkpoint tier behaves like the local one:
//     exactly one capture, every other execution restored from it.

// sweepdPasses holds the three passes' outcomes.
type sweepdPasses struct {
	cores                      int
	jobs                       []runq.Job
	local, cold, warm          []string // per-config digests
	localDur, coldDur, warmDur time.Duration
	st                         sweepd.Statz // the server's counters after both remote passes
}

// sweepdBench is the gate's BENCH record.
type sweepdBench struct {
	benchEnvelope
	Configs          int    `json:"configs"`
	Protocol         string `json:"protocol"`
	LocalMs          int64  `json:"local_ms"`
	RemoteColdMs     int64  `json:"remote_cold_ms"`
	RemoteWarmMs     int64  `json:"remote_warm_ms"`
	ServerRuns       int    `json:"server_runs"`
	JobsSubmitted    int    `json:"jobs_submitted"`
	JobsCoalesced    int    `json:"jobs_coalesced"`
	CkptCaptured     int    `json:"ckpt_captured"`
	CkptRestored     int    `json:"ckpt_restored"`
	DigestsIdentical bool   `json:"digests_identical"`
}

// runSweepdPasses executes the local pass and both remote passes.
func runSweepdPasses(w io.Writer, cores int) (sweepdPasses, error) {
	jobs, err := sweepReuseJobs()
	p := sweepdPasses{cores: cores, jobs: jobs}
	if err != nil {
		return p, err
	}
	fmt.Fprintf(w, "sweepd gate: %s, %d configs, local pool vs loopback sweepd server\n",
		sweepReuseTrace, len(jobs))

	tiers := runq.Options{Checkpoints: true}
	// Local pass: the reference digests.
	if p.local, p.localDur, err = runSweepPass(runq.New(tiers), jobs); err != nil {
		return p, fmt.Errorf("local pass: %v", err)
	}

	// The server, on a real loopback listener — the same HTTP path any
	// remote client takes, minus only the physical network.
	srv := sweepd.New(sweepd.Config{Pool: tiers, Clock: wallClock()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return p, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	defer srv.Shutdown(nil)
	cl := client.New("http://" + ln.Addr().String())

	if p.cold, p.coldDur, err = runSweepPass(cl, jobs); err != nil {
		return p, fmt.Errorf("remote cold pass: %v", err)
	}
	if p.warm, p.warmDur, err = runSweepPass(cl, jobs); err != nil {
		return p, fmt.Errorf("remote warm pass: %v", err)
	}
	if p.st, err = cl.Statz(); err != nil {
		return p, fmt.Errorf("statz: %v", err)
	}
	return p, nil
}

// checkSweepd applies every bound, returning the violations and the record.
func checkSweepd(p sweepdPasses) ([]string, sweepdBench) {
	var violations []string
	diverged := diverging(p.jobs, p.local, p.cold, p.warm)
	for _, name := range diverged {
		violations = append(violations, fmt.Sprintf("%s: remote digest diverges from local digest", name))
	}
	n, st := len(p.jobs), p.st
	if st.Pool.Runs != n {
		violations = append(violations, fmt.Sprintf(
			"server executed %d jobs across both passes, want exactly %d (dedup broken)", st.Pool.Runs, n))
	}
	if st.JobsCoalesced < n {
		violations = append(violations, fmt.Sprintf(
			"only %d submissions coalesced, want >= %d (the whole warm pass)", st.JobsCoalesced, n))
	}
	if st.JobsFailed != 0 {
		violations = append(violations, fmt.Sprintf("%d job(s) failed server-side", st.JobsFailed))
	}
	if st.CkptCaptured != 1 || st.CkptRestored != n-1 {
		violations = append(violations, fmt.Sprintf(
			"server checkpoint tier captured %d / restored %d, want 1 and %d", st.CkptCaptured, st.CkptRestored, n-1))
	}
	return violations, sweepdBench{
		benchEnvelope: newEnvelope(fmt.Sprintf(
			"sweepd gate (%s, %d-config ablation, local pool vs loopback server, cold+warm remote passes)", sweepReuseTrace, n), p.cores),
		Configs:          n,
		Protocol:         sweepd.ProtocolVersion,
		LocalMs:          p.localDur.Milliseconds(),
		RemoteColdMs:     p.coldDur.Milliseconds(),
		RemoteWarmMs:     p.warmDur.Milliseconds(),
		ServerRuns:       st.Pool.Runs,
		JobsSubmitted:    st.JobsSubmitted,
		JobsCoalesced:    st.JobsCoalesced,
		CkptCaptured:     st.CkptCaptured,
		CkptRestored:     st.CkptRestored,
		DigestsIdentical: len(diverged) == 0,
	}
}

// reportSweepd prints the summary.
func reportSweepd(w io.Writer, _ sweepdPasses, b sweepdBench) error {
	fmt.Fprintf(w, "  local %dms  remote cold %dms  remote warm %dms (%d resubmissions coalesced)\n",
		b.LocalMs, b.RemoteColdMs, b.RemoteWarmMs, b.JobsCoalesced)
	fmt.Fprintf(w, "  digests byte-identical local vs remote across all %d configs: %v; server ran %d jobs, captured %d ckpt, restored %d\n",
		b.Configs, b.DigestsIdentical, b.ServerRuns, b.CkptCaptured, b.CkptRestored)
	return nil
}
