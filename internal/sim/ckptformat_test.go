package sim

import (
	"bytes"
	"testing"

	"ucp/internal/core"
	"ucp/internal/trace"
)

// warmBlobLimit bounds a UCP warm checkpoint of srv203 at a 2.4M-
// instruction boundary on the Table II machine. The set codec writes
// each cache, TLB and BTB set as its valid ways' stripped tags, which
// puts the blob at about 530 KiB; writing every packed valid|tag word as
// a uvarint took 2.1 MiB.
const warmBlobLimit = 640 << 10

// TestWarmBlobSizeAndIdentity pins the warm checkpoint format on the
// paper's full-size machine, for the baseline and the UCP config: srv203
// fast-forwarded to a 2.4M-instruction boundary under the default
// boundary warm is captured, restored into a fresh machine and captured
// again, and the two blobs must be byte-identical. The UCP blob must
// also stay within warmBlobLimit, so a format that stops compacting
// sets fails here rather than only in memory footprints.
func TestWarmBlobSizeAndIdentity(t *testing.T) {
	prof, _ := trace.ProfileByName("srv203")
	prog, err := trace.BuildProgram(prof)
	if err != nil {
		t.Fatal(err)
	}
	const boundary = 2_400_000
	h := DefaultBoundaryWarm()
	for _, cfg := range []Config{Baseline(), WithUCP(core.DefaultConfig())} {
		m := NewMachine(cfg, trace.NewWalker(prog), prog)
		if err := m.fastForward(boundary-h.DetailedInsts, h); err != nil {
			t.Fatal(err)
		}
		blob := m.captureWarm()
		fresh := NewMachine(cfg, trace.NewWalker(prog), prog)
		if err := fresh.restoreWarm(blob); err != nil {
			t.Fatalf("%s: restore: %v", cfg.Name, err)
		}
		if again := fresh.captureWarm(); !bytes.Equal(again, blob) {
			t.Errorf("%s: recapture after restore is %d bytes, differs from the %d-byte capture", cfg.Name, len(again), len(blob))
		}
		t.Logf("%s: %d-byte warm checkpoint", cfg.Name, len(blob))
		if cfg.UCP != nil && len(blob) > warmBlobLimit {
			t.Errorf("%s: warm checkpoint is %d bytes, above the %d-byte bound", cfg.Name, len(blob), warmBlobLimit)
		}
	}
}
