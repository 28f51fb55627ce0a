package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
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

// sectionOffset returns the payload offset of the first set count in
// the nth section named name: the marker (length byte and name), then
// the set codec's entry-count uvarint.
func sectionOffset(f *testing.F, payload []byte, name string, nth int) int {
	marker := append([]byte{byte(len(name))}, name...)
	off := -len(marker)
	for range nth {
		i := bytes.Index(payload[off+len(marker):], marker)
		if i < 0 {
			f.Fatalf("payload has fewer than %d %q sections", nth, name)
		}
		off += len(marker) + i
	}
	off += len(marker)
	_, n := binary.Uvarint(payload[off:])
	return off + n
}

// FuzzRestoreWarm decodes fuzzed warm checkpoints through the full
// restore path (ckpt.Reader, every structure's LoadState, the
// direction-history loader among them). An input edits a real
// checkpoint payload: patch is written over it (or inserted) at off,
// and a nonzero keep truncates the result. Edits keep inputs small
// while reaching every field, and the edited payload is sealed before
// restoring so it gets past the envelope digest. Malformed state must
// surface as an error, never a panic — neither in the restore nor in
// the 2,000 cycles a restored machine then runs.
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
		if err := m.fastForward(40_000, BoundaryWarm{FFInsts: 2_000, CacheInsts: 10_000, BPInsts: 20_000}); err != nil {
			f.Fatal(err)
		}
		blob := m.captureWarm()
		payloads[i] = blob[envelope : len(blob)-sha256.Size]
		f.Add(withUCP, uint32(0), []byte(nil), false, uint32(0))
		f.Add(withUCP, uint32(3), []byte{0xff, 0xff, 0xff}, false, uint32(0))
		f.Add(withUCP, uint32(len(payloads[i])/2), []byte{0x80}, true, uint32(0))
		f.Add(withUCP, uint32(0), []byte(nil), false, uint32(len(payloads[i])-1))
	}
	// Start edits inside the set codec's users whose ways carry
	// payloads or are most numerous: the LLC (the fourth "cache"
	// section, after L1I, L1D and L2), the BTB and the µ-op cache. Each
	// seed lands on the first set's valid-way count, one raising it past
	// the associativity, one inserting a byte that shifts every tag.
	for i, withUCP := range []bool{false, true} {
		for _, sec := range []struct {
			name string
			nth  int
		}{{"cache", 4}, {"btb", 1}, {"uopcache", 1}} {
			off := sectionOffset(f, payloads[i], sec.name, sec.nth)
			f.Add(withUCP, uint32(off), []byte{0x7f}, false, uint32(0))
			f.Add(withUCP, uint32(off+1), []byte{0x01}, true, uint32(0))
		}
		// The RAS write position follows its entries: this seed sets it
		// to the capacity, one past the last slot.
		ras := fuzzMachine(prog, withUCP).fe.RAS
		off := sectionOffset(f, payloads[i], "ras", 1)
		for range ras.Capacity() {
			_, n := binary.Uvarint(payloads[i][off:])
			off += n
		}
		f.Add(withUCP, uint32(off), []byte{byte(ras.Capacity())}, false, uint32(0))
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
		if m.restoreWarm(w.Seal()) != nil {
			return
		}
		// A restore that loads must leave a machine that runs.
		for range 2_000 {
			m.Step()
		}
	})
}
