package sim

import (
	"ucp/internal/cache"
	"ucp/internal/trace"
)

// This file is the warming skip's batched kernel. The trace source
// records one chunk of skipped instructions into the machine's warmBuf
// (trace.SkipWarmN with the buffer as its Warmer), and the machine then
// replays the chunk through each consumer in its own tight pass: the
// demand direction predictor, then the alternate-path predictor, then
// the memory hierarchy. Interleaving the three per instruction made the
// trace generator, the predictor tables and the LLC tag arrays evict
// each other from the host's caches.
//
// The reordering is exact because:
//   - the predictors and the hierarchy share no state, and Alt-BP reads
//     only the demand predictor's predicted directions, which pass 1
//     records in order;
//   - fetch lines and data lines stay in one ordered stream, since the
//     L1I and L1D share the L2 and the LLC;
//   - m.cycle, the hierarchy's nominal time, is constant inside a zone.

// warmChunk is the warming skip's batch size in instructions: large
// enough to amortize each pass's loop set-up and keep one consumer's
// tables hot across a pass, small enough that the recorded chunk stays
// in the host's L2.
const warmChunk = 4096

// warmBuf is a machine's warming-skip chunk buffer. It implements
// trace.Warmer and trace.BranchWarmer by recording, never by warming.
type warmBuf struct {
	// refs is the ordered memory stream (fetch and data lines).
	refs *cache.RefBuf
	// condPC/condTaken are the conditional outcomes in order; predTaken
	// receives the demand predictor's direction for each in pass 1.
	condPC    []uint64
	condTaken []bool
	predTaken []bool

	// fetch/data select which references this zone records: a
	// predictor-only zone records neither, and an Ideal.UopAlwaysHit
	// machine never warms the L1I.
	fetch, data bool
	// lastLine is the last fetch line recorded in this zone. Sources
	// restart their fetch-line filter on every SkipWarm call, so each
	// chunk re-reports the line the previous chunk ended on; dropping
	// that seam duplicate leaves exactly one report per line crossing,
	// as a single call over the whole zone would give.
	lastLine  uint64
	lineValid bool
}

func newWarmBuf() *warmBuf {
	return &warmBuf{
		// At most one fetch line and one data reference per instruction.
		refs:      cache.NewRefBuf(2 * warmChunk),
		condPC:    make([]uint64, 0, warmChunk),
		condTaken: make([]bool, 0, warmChunk),
		predTaken: make([]bool, 0, warmChunk),
	}
}

// WarmFetch implements trace.Warmer.
func (b *warmBuf) WarmFetch(lineAddr uint64) {
	if !b.fetch || (b.lineValid && lineAddr == b.lastLine) {
		return
	}
	b.lastLine, b.lineValid = lineAddr, true
	b.refs.AddFetch(lineAddr)
}

// WarmMem implements trace.Warmer.
func (b *warmBuf) WarmMem(addr uint64) {
	if b.data {
		b.refs.AddData(addr)
	}
}

// WarmCond implements trace.BranchWarmer.
func (b *warmBuf) WarmCond(pc uint64, taken bool) {
	b.condPC = append(b.condPC, pc)
	b.condTaken = append(b.condTaken, taken)
}

// zoneKind is one tier of the warming skip (fastForward).
type zoneKind int

const (
	zonePure  zoneKind = iota // skip at trace-generator speed, no model updates
	zoneBP                    // train the direction predictors
	zoneCache                 // train the predictors and warm the hierarchy
)

// skipZone advances the stream by up to n instructions through one
// warming zone, chunk instructions at a time (warmChunk in production;
// tests vary it to move the seams), and returns the number skipped,
// short only at end of trace.
func (m *Machine) skipZone(n uint64, kind zoneKind, chunk int) uint64 {
	if kind == zonePure {
		return uint64(trace.SkipN(m.src, int(n)))
	}
	if m.warm == nil {
		m.warm = newWarmBuf()
	}
	b := m.warm
	b.fetch = kind == zoneCache && !m.cfg.Ideal.UopAlwaysHit
	b.data = kind == zoneCache
	b.lineValid = false
	var done uint64
	for done < n {
		c := int(min(n-done, uint64(chunk)))
		b.refs.Reset()
		b.condPC, b.condTaken = b.condPC[:0], b.condTaken[:0]
		got := trace.SkipWarmN(m.src, c, b)
		m.replayWarm()
		done += uint64(got)
		if got < c {
			break
		}
	}
	return done
}

// replayWarm feeds the recorded chunk to each consumer in turn.
func (m *Machine) replayWarm() {
	b := m.warm
	b.predTaken = b.predTaken[:0]
	for i, pc := range b.condPC {
		b.predTaken = append(b.predTaken, m.fe.WarmCond(pc, b.condTaken[i]))
	}
	if m.ucp != nil {
		for i, pc := range b.condPC {
			m.ucp.WarmCond(pc, b.condTaken[i], b.predTaken[i])
		}
	}
	m.mem.WarmRefs(b.refs, m.cycle)
}
