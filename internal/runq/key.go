package runq

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"ucp/internal/sim"
	"ucp/internal/trace"
)

// SchemaVersion stamps the cache record layout. Bumping it (or
// sim.ModelVersion, which is folded into every key alongside it)
// orphans all previously written records: they are simply never looked
// up again, so no explicit invalidation pass is needed.
const SchemaVersion = "runq-8"

// keyPayload is the canonical serialized identity of a job. It contains
// everything that determines a run's measured numbers: the full machine
// configuration (not just its display name), the complete workload
// identity — the synthetic parameterization, or a recorded trace's
// content digest — the instruction budgets, and the model + schema
// version stamps. Two jobs share a cache entry exactly when all of it
// matches — same-named configs with different contents, or the same
// sweep at different instruction counts, hash apart. Recorded traces
// are keyed by content, never by path, so a renamed (or re-recorded)
// file behaves correctly.
type keyPayload struct {
	Schema      string
	Model       string
	Config      sim.Config
	Profile     trace.Profile
	TraceDigest string
	Warmup      uint64
	Measure     uint64
	Segments    int
	// WindowParallel marks sampled jobs whose windows run in parallel
	// through the interval executor. The window plan is fully
	// determined by the sampling geometry already inside Config, so the
	// flag alone identifies the mode; Segments is normalized away for
	// such jobs.
	WindowParallel bool
}

// Key returns the hex SHA-256 content digest addressing job's result.
// The digest is computed over the deterministic JSON encoding of the
// job's full identity; encoding/json emits struct fields in declaration
// order and contains no maps here, so the bytes are stable.
//
// Recorded-trace jobs cannot be keyed without reading the file (their
// identity is the trace content); submit them through Pool.RunAll,
// which resolves the digest against the pool's shared arena.
func Key(job Job) (string, error) {
	if job.TraceFile != "" {
		return "", fmt.Errorf("runq: %s: recorded-trace jobs are keyed by content; submit through Pool.RunAll", job.TraceFile)
	}
	return keyWith(job, "")
}

// keyWith computes the digest with the job's trace-content identity
// already resolved ("" for synthetic-profile jobs).
func keyWith(job Job, traceDigest string) (string, error) {
	cfg := job.Config
	cfg.WarmupInsts, cfg.MeasureInsts = job.Warmup, job.Measure
	if job.Boundary != (sim.BoundaryWarm{}) {
		return "", fmt.Errorf("runq: %s/%s: Job.Boundary is retired; boundary warming is fixed (sim.DefaultBoundaryWarm for segments, the sampling geometry for windows)",
			job.Config.Name, job.traceLabel())
	}
	// Normalize the parallel identity so equivalent jobs share a record:
	// the serial forms (0 and 1 segments) collapse to one key, and
	// segmented sampled jobs collapse onto WindowParallel=true with
	// Segments zeroed — the window plan lives in Config.Sampling, so any
	// segment count maps to the same execution. The parallel mode stays
	// in the key even though the merged numbers are meant to approximate
	// the serial run — boundary warming and window independence change
	// the measured bytes, so cached results must not cross those lines.
	segments := job.Segments
	windowParallel := false
	if segments <= 1 {
		segments = 0
	} else if cfg.Sampling.Enabled {
		windowParallel = true
		segments = 0
	}
	b, err := json.Marshal(keyPayload{
		Schema:         SchemaVersion,
		Model:          sim.ModelVersion,
		Config:         cfg,
		Profile:        job.Profile,
		TraceDigest:    traceDigest,
		Warmup:         job.Warmup,
		Measure:        job.Measure,
		Segments:       segments,
		WindowParallel: windowParallel,
	})
	if err != nil {
		return "", fmt.Errorf("runq: hashing %s/%s: %w", job.Config.Name, job.traceLabel(), err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// profileKey identifies a workload parameterization for the in-process
// program cache. Profiles with equal names but different parameters map
// to different programs, so the key covers every field.
func profileKey(p trace.Profile) (string, error) {
	b, err := json.Marshal(p)
	if err != nil {
		return "", fmt.Errorf("runq: hashing profile %s: %w", p.Name, err)
	}
	return string(b), nil
}
