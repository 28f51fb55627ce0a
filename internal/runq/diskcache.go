package runq

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"ucp/internal/sim"
)

// record is one cached run on disk: the result plus enough identity
// metadata to reject records written by a different schema or model
// revision (belt-and-braces — the version stamps are already folded
// into the file's content-addressed name). On disk the record's JSON
// is sealed (sealRecord), so a damaged record is a miss, not a result.
type record struct {
	Key     string     `json:"key"`
	Schema  string     `json:"schema"`
	Model   string     `json:"model"`
	Config  string     `json:"config"`
	Trace   string     `json:"trace"`
	Warmup  uint64     `json:"warmup"`
	Measure uint64     `json:"measure"`
	Result  sim.Result `json:"result"`
}

// cachePath maps a key to its record file, sharding by the first byte
// of the digest so no single directory grows unboundedly.
func (p *Pool) cachePath(key string) string {
	return filepath.Join(p.opts.CacheDir, key[:2], key+".rec")
}

// sealRecord prefixes a record's JSON with the hex SHA-256 of that
// JSON and a newline (encoding/json never emits one).
func sealRecord(js []byte) []byte {
	sum := sha256.Sum256(js)
	return append(append([]byte(hex.EncodeToString(sum[:])), '\n'), js...)
}

// openRecord returns the JSON of a sealed record, and false unless the
// seal matches it.
func openRecord(b []byte) ([]byte, bool) {
	head, js, ok := bytes.Cut(b, []byte{'\n'})
	sum := sha256.Sum256(js)
	return js, ok && string(head) == hex.EncodeToString(sum[:])
}

// loadDisk returns the cached result for key, if a valid record exists.
// Unreadable, damaged or mismatched records are treated as misses (and
// later overwritten by storeDisk), never as errors: the cache is purely
// an accelerator.
func (p *Pool) loadDisk(key string) (sim.Result, bool) {
	if p.opts.CacheDir == "" {
		return sim.Result{}, false
	}
	b, err := os.ReadFile(p.cachePath(key))
	if err != nil {
		return sim.Result{}, false
	}
	js, ok := openRecord(b)
	if !ok {
		return sim.Result{}, false
	}
	var rec record
	if err := json.Unmarshal(js, &rec); err != nil {
		return sim.Result{}, false
	}
	if rec.Key != key || rec.Schema != SchemaVersion || rec.Model != sim.ModelVersion {
		return sim.Result{}, false
	}
	return rec.Result, true
}

// storeDisk writes the record atomically (temp file + rename) so a
// concurrent reader — or a second runq process sharing the directory —
// never observes a torn record. Cache write failures are reported but
// non-fatal: the computed result is still returned to the caller.
func (p *Pool) storeDisk(key string, job Job, res sim.Result) error {
	if p.opts.CacheDir == "" {
		return nil
	}
	path := p.cachePath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("runq: cache dir: %w", err)
	}
	b, err := json.Marshal(record{
		Key:     key,
		Schema:  SchemaVersion,
		Model:   sim.ModelVersion,
		Config:  job.Config.Name,
		Trace:   job.traceLabel(),
		Warmup:  job.Warmup,
		Measure: job.Measure,
		Result:  res,
	})
	if err != nil {
		return fmt.Errorf("runq: encoding cache record: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+key+".tmp-")
	if err != nil {
		return fmt.Errorf("runq: cache temp file: %w", err)
	}
	_, werr := tmp.Write(sealRecord(b))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runq: writing cache record: write=%v close=%v", werr, cerr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runq: committing cache record: %w", err)
	}
	return nil
}
