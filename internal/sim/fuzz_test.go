package sim

import (
	"crypto/sha256"
	"testing"

	"ucp/internal/bpred"
	"ucp/internal/ckpt"
	"ucp/internal/core"
	"ucp/internal/trace"
)

// fuzzMachine builds the machine a fuzzed warm checkpoint restores
// into: a sampled baseline or UCP machine with small caches, BTB and
// direction predictor, so each input builds and restores in about a
// millisecond, over a bounded srv203 stream, so a fuzzed stream
// position ends the replay with an error instead of running on. The
// 64 KiB LLC has a non-power-of-two set count.
func fuzzMachine(prog *trace.Program, withUCP bool) *Machine {
	cfg := Baseline()
	if withUCP {
		cfg = WithUCP(core.DefaultConfig())
	}
	cfg.Memory.L2.SizeBytes = 32 << 10
	cfg.Memory.LLC.SizeBytes = 64 << 10
	cfg.Pred = bpred.Config8KB()
	cfg.BTB.Entries = 1024
	cfg.Sampling = ConservativeSampling()
	return NewMachine(cfg, trace.NewLimit(trace.NewWalker(prog), 100_000), prog)
}

// FuzzRestoreWarm decodes fuzzed warm checkpoints through the full
// restore path (ckpt.Reader, every structure's LoadState, the
// direction-history loader among them). An input edits a real
// checkpoint payload: patch is written over it (or inserted) at off,
// and a nonzero keep truncates the result. Edits keep inputs small
// while reaching every field, and the edited payload is sealed before
// restoring so it gets past the envelope digest. Malformed state must
// surface as an error, never a panic.
func FuzzRestoreWarm(f *testing.F) {
	prof, _ := trace.ProfileByName("srv203")
	prog, err := trace.BuildProgram(prof)
	if err != nil {
		f.Fatal(err)
	}
	const envelope = 8 // magic + version ahead of the payload
	var payloads [2][]byte
	for i, withUCP := range []bool{false, true} {
		m := fuzzMachine(prog, withUCP)
		var skipped, ff uint64
		if err := m.fastForward(40_000, 2_000, 10_000, 20_000, &skipped, &ff); err != nil {
			f.Fatal(err)
		}
		blob := m.captureWarm(skipped, ff)
		payloads[i] = blob[envelope : len(blob)-sha256.Size]
		f.Add(withUCP, uint32(0), []byte(nil), false, uint32(0))
		f.Add(withUCP, uint32(3), []byte{0xff, 0xff, 0xff}, false, uint32(0))
		f.Add(withUCP, uint32(len(payloads[i])/2), []byte{0x80}, true, uint32(0))
		f.Add(withUCP, uint32(0), []byte(nil), false, uint32(len(payloads[i])-1))
	}
	f.Fuzz(func(t *testing.T, withUCP bool, off uint32, patch []byte, insert bool, keep uint32) {
		base := payloads[0]
		if withUCP {
			base = payloads[1]
		}
		o := int(off % uint32(len(base)))
		var p []byte
		if insert {
			p = append(append(append(p, base[:o]...), patch...), base[o:]...)
		} else {
			p = append(p, base...)
			copy(p[o:], patch)
		}
		if keep > 0 {
			p = p[:int(keep%uint32(len(p)+1))]
		}
		w := ckpt.NewWriter()
		for _, b := range p {
			w.Byte(b)
		}
		m := fuzzMachine(prog, withUCP)
		_, _, _ = m.restoreWarm(w.Seal())
	})
}
