package runq

import (
	"encoding/json"

	"ucp/internal/ckpt"
	"ucp/internal/sim"
)

// record is one cached run: the result plus enough identity metadata
// to reject records written by a different schema or model revision
// (belt-and-braces — the version stamps are already folded into the
// file's content-addressed name). On disk it is a ckpt envelope with
// one "record" section holding its JSON.
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

// outcome is a job's memoized resolution: its record, or the error
// that failed it. A failure stays in memory only, so a later process
// retries the job.
type outcome struct {
	rec record
	err error
}

// recordCodec persists outcomes as <key>.rec files.
var recordCodec = ckpt.Codec[*outcome]{Ext: ".rec", Encode: encodeRecord, Decode: decodeRecord}

// encodeRecord seals a successful outcome's record; a failure, or a
// result encoding/json rejects, stays in memory.
func encodeRecord(_ string, o *outcome) []byte {
	if o.err != nil {
		return nil
	}
	js, err := json.Marshal(o.rec)
	if err != nil {
		return nil
	}
	return sealRecord(js)
}

// sealRecord wraps a record's JSON in a ckpt envelope.
func sealRecord(js []byte) []byte {
	w := ckpt.NewWriter()
	w.Section("record")
	w.U8s(js)
	return w.Seal()
}

// decodeRecord rebuilds a verified record file's outcome; false for
// one that does not parse or names another key, schema or model.
func decodeRecord(key string, blob []byte) (*outcome, bool) {
	r, err := ckpt.Open(blob)
	if err != nil {
		return nil, false
	}
	r.Section("record")
	js := r.U8s()
	if r.Close() != nil {
		return nil, false
	}
	var rec record
	if err := json.Unmarshal(js, &rec); err != nil {
		return nil, false
	}
	if rec.Key != key || rec.Schema != SchemaVersion || rec.Model != sim.ModelVersion {
		return nil, false
	}
	return &outcome{rec: rec}, true
}
