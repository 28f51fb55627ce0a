package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"

	"ucp/internal/isa"
)

// Arena is a decode-once, read-only trace shared by many consumers: the
// instruction stream is held in the v2 compact byte encoding (~2-6
// bytes/inst versus 48 bytes for a materialized []isa.Inst), and every
// consumer gets its own cheap Cursor over the shared bytes. An Arena is
// immutable after construction, so any number of cursors may run
// concurrently — the runq worker pool builds one arena per trace and
// hands each job a fresh cursor instead of re-decoding the file per job.
//
// A periodic seek index (one decoder-state snapshot every
// ArenaIndexPeriod instructions) makes Cursor.Skip O(1) in the distance
// skipped: a skip jumps to the nearest preceding snapshot and decodes at
// most one period of records. An arena loaded from a file builds the
// index in the same scan that validates every record.
type Arena struct {
	data   []byte      // v2 record stream (no file header)
	count  uint64      // total instruction count
	snaps  []arenaSnap // snaps[i] = decoder state before record i*ArenaIndexPeriod
	digest [sha256.Size]byte
}

// ArenaIndexPeriod is the seek-index granularity: one decoder-state
// snapshot per this many instructions. A skip decodes at most one
// period of records after jumping to a snapshot.
const ArenaIndexPeriod = 4096

// arenaSnap is the complete v2 decoder state at a record boundary:
// everything needed to resume decoding at byte offset off.
type arenaSnap struct {
	off      uint64
	expectPC uint64
	lastMem  uint64
	lastDst  uint8
	lastSrc1 uint8
	lastSrc2 uint8
}

// cursorState is the live v2 decoder state of one cursor (the mutable
// counterpart of arenaSnap).
type cursorState struct {
	off      int
	expectPC uint64
	lastMem  uint64
	lastDst  uint8
	lastSrc1 uint8
	lastSrc2 uint8
}

// arenaBuilder incrementally encodes a stream into arena form. It is
// the format's only encoder — WriteCompact writes its body after the
// file header — and it records a seek-index snapshot every
// ArenaIndexPeriod instructions as it encodes, so building an arena is
// a single pass: no intermediate []isa.Inst (48 bytes/inst) is ever
// materialized and no separate index scan runs.
type arenaBuilder struct {
	body     []byte
	snaps    []arenaSnap
	count    uint64
	expectPC uint64
	lastMem  uint64
	lastDst  uint8
	lastSrc1 uint8
	lastSrc2 uint8
}

// add encodes one instruction. An instruction whose PC, taken target
// or memory address lies outside isa.AddrBits is an error naming it,
// with the text the decoder gives for such a record, and is not
// encoded: the encoder writes only what the decoder accepts.
func (b *arenaBuilder) add(in *isa.Inst) error {
	var target, mem uint64
	if in.Taken {
		target = in.Target
	}
	if in.Class == isa.Load || in.Class == isa.Store {
		mem = in.MemAddr
	}
	if (in.PC|target|mem)>>isa.AddrBits != 0 {
		return fmt.Errorf("trace: %w at record %d", addrError(in.PC, target, mem), b.count)
	}
	b.encode(in)
	return nil
}

// encode appends one instruction's record, whatever its addresses.
func (b *arenaBuilder) encode(in *isa.Inst) {
	if b.count%ArenaIndexPeriod == 0 {
		b.snaps = append(b.snaps, arenaSnap{
			off: uint64(len(b.body)), expectPC: b.expectPC, lastMem: b.lastMem,
			lastDst: b.lastDst, lastSrc1: b.lastSrc1, lastSrc2: b.lastSrc2,
		})
	}
	first := b.count == 0
	flags := byte(in.Class) & classMask
	if in.Taken {
		flags |= flagTaken
	}
	explicitPC := first || in.PC != b.expectPC
	if explicitPC {
		flags |= flagPC
	}
	hasMem := in.Class == isa.Load || in.Class == isa.Store
	if hasMem {
		flags |= flagMem
	}
	regsChanged := first || in.Dst != b.lastDst || in.Src1 != b.lastSrc1 || in.Src2 != b.lastSrc2
	if regsChanged {
		flags |= flagRegs
	}
	b.body = append(b.body, flags)
	if explicitPC {
		b.body = binary.AppendVarint(b.body, int64(in.PC)-int64(b.expectPC))
	}
	if in.Taken {
		b.body = binary.AppendVarint(b.body, int64(in.Target)-int64(in.PC))
	}
	if hasMem {
		b.body = binary.AppendVarint(b.body, int64(in.MemAddr)-int64(b.lastMem))
		b.lastMem = in.MemAddr
	}
	if regsChanged {
		b.body = append(b.body, in.Dst, in.Src1, in.Src2)
		b.lastDst, b.lastSrc1, b.lastSrc2 = in.Dst, in.Src1, in.Src2
	}
	b.expectPC = in.NextPC()
	b.count++
}

// finish assembles the arena, computing the digest over the file bytes
// (header + body) without concatenating them.
func (b *arenaBuilder) finish() *Arena {
	h := sha256.New()
	h.Write(fileHeader(b.count))
	h.Write(b.body)
	a := &Arena{data: b.body, count: b.count, snaps: b.snaps}
	copy(a.digest[:], h.Sum(nil))
	return a
}

// NewArena encodes insts into a shared arena. An arena built from a
// slice and one loaded from the file WriteCompact writes for it hold
// identical bytes (and identical digests). An address outside
// isa.AddrBits panics with WriteCompact's error.
func NewArena(insts []isa.Inst) *Arena {
	a, err := encodeArena(insts)
	if err != nil {
		panic(err)
	}
	return a
}

// encodeArena encodes insts into an arena, or returns the error of the
// first instruction with an address outside isa.AddrBits.
func encodeArena(insts []isa.Inst) (*Arena, error) {
	var b arenaBuilder
	b.body = make([]byte, 0, 4*len(insts))
	for i := range insts {
		if err := b.add(&insts[i]); err != nil {
			return nil, err
		}
	}
	return b.finish(), nil
}

// ArenaFromSource drains up to n instructions from src into an arena,
// streaming each straight through the encoder. An address outside
// isa.AddrBits panics with WriteCompact's error.
func ArenaFromSource(src Source, n int) *Arena {
	var b arenaBuilder
	if n > 0 {
		b.body = make([]byte, 0, 4*n)
	}
	for i := 0; i < n; i++ {
		in, ok := src.Next()
		if !ok {
			break
		}
		if err := b.add(&in); err != nil {
			panic(err)
		}
	}
	return b.finish()
}

// LoadArena reads and validates a trace file into an arena.
func LoadArena(path string) (*Arena, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseArena(raw)
}

// parseArena validates a whole trace file — header, every record, no
// trailing bytes — and adopts its record bytes. It is the one parser
// every file goes through (LoadArena, ReadAny).
func parseArena(raw []byte) (*Arena, error) {
	if len(raw) < fileHeaderLen {
		return nil, fmt.Errorf("trace: truncated header (%d of %d bytes)", len(raw), fileHeaderLen)
	}
	if string(raw[:4]) != fileMagic {
		return nil, errors.New("trace: bad magic")
	}
	if v := binary.LittleEndian.Uint32(raw[4:8]); v != compactVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	n := binary.LittleEndian.Uint64(raw[8:16])
	if n > maxInsts {
		return nil, fmt.Errorf("trace: implausible instruction count %d", n)
	}
	a := &Arena{data: raw[fileHeaderLen:], count: n}
	if err := a.buildIndex(); err != nil {
		return nil, err
	}
	a.digest = sha256.Sum256(raw)
	return a, nil
}

// buildIndex scans the record stream once, validating every record and
// snapshotting the decoder state each ArenaIndexPeriod instructions.
// After a successful scan cursors can decode without error checks. The
// index grows with the records that parse, never with the header's
// untrusted count.
func (a *Arena) buildIndex() error {
	var st cursorState
	for i := uint64(0); i < a.count; i++ {
		if i%ArenaIndexPeriod == 0 {
			a.snaps = append(a.snaps, snapOf(&st))
		}
		off := st.off
		if err := a.decode(&st, nil); err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return fmt.Errorf("trace: truncated at record %d", i)
			}
			return fmt.Errorf("trace: %w at record %d", err, i)
		}
		// The encoder sets flagMem exactly on loads and stores; a memory
		// delta on any other class would not survive a rewrite.
		if flags := a.data[off]; flags&flagMem != 0 {
			if c := isa.Class(flags & classMask); c != isa.Load && c != isa.Store {
				return fmt.Errorf("trace: memory operand on %v at record %d", c, i)
			}
		}
	}
	if st.off != len(a.data) {
		return fmt.Errorf("trace: %d trailing bytes after %d records", len(a.data)-st.off, a.count)
	}
	return nil
}

func snapOf(st *cursorState) arenaSnap {
	return arenaSnap{
		off:      uint64(st.off),
		expectPC: st.expectPC,
		lastMem:  st.lastMem,
		lastDst:  st.lastDst,
		lastSrc1: st.lastSrc1,
		lastSrc2: st.lastSrc2,
	}
}

func (st *cursorState) load(s arenaSnap) {
	st.off = int(s.off)
	st.expectPC = s.expectPC
	st.lastMem = s.lastMem
	st.lastDst = s.lastDst
	st.lastSrc1 = s.lastSrc1
	st.lastSrc2 = s.lastSrc2
}

// decode advances st past one record. When in is non-nil the decoded
// instruction is stored there; a nil in skips the store but performs the
// identical state update (used by Skip and the index scan). A record
// with an address at or above 1<<isa.AddrBits fails: the tag arrays
// hold no wider address (isa.AddrBits).
func (a *Arena) decode(st *cursorState, in *isa.Inst) error {
	data := a.data
	if st.off >= len(data) {
		return io.ErrUnexpectedEOF
	}
	flags := data[st.off]
	st.off++
	class := isa.Class(flags & classMask)
	if int(class) >= isa.NumClasses {
		return fmt.Errorf("bad class %d", class)
	}
	taken := flags&flagTaken != 0
	pc := st.expectPC
	if flags&flagPC != 0 {
		d, n := binary.Varint(data[st.off:])
		if n <= 0 {
			return io.ErrUnexpectedEOF
		}
		st.off += n
		pc = uint64(int64(st.expectPC) + d)
	}
	var target uint64
	if taken {
		d, n := binary.Varint(data[st.off:])
		if n <= 0 {
			return io.ErrUnexpectedEOF
		}
		st.off += n
		target = uint64(int64(pc) + d)
	}
	var mem uint64
	if flags&flagMem != 0 {
		d, n := binary.Varint(data[st.off:])
		if n <= 0 {
			return io.ErrUnexpectedEOF
		}
		st.off += n
		st.lastMem = uint64(int64(st.lastMem) + d)
		mem = st.lastMem
	}
	if flags&flagRegs != 0 {
		if st.off+3 > len(data) {
			return io.ErrUnexpectedEOF
		}
		st.lastDst = data[st.off]
		st.lastSrc1 = data[st.off+1]
		st.lastSrc2 = data[st.off+2]
		st.off += 3
	}
	if (pc|target|mem)>>isa.AddrBits != 0 {
		return addrError(pc, target, mem)
	}
	rec := isa.Inst{
		PC:      pc,
		Class:   class,
		Taken:   taken,
		Target:  target,
		MemAddr: mem,
		Dst:     st.lastDst,
		Src1:    st.lastSrc1,
		Src2:    st.lastSrc2,
	}
	st.expectPC = rec.NextPC()
	if in != nil {
		*in = rec
	}
	return nil
}

// addrError names the first of a record's addresses that lies outside
// the model's address width (isa.AddrBits).
func addrError(pc, target, mem uint64) error {
	name, a := "memory address", mem
	if target>>isa.AddrBits != 0 {
		name, a = "target", target
	}
	if pc>>isa.AddrBits != 0 {
		name, a = "PC", pc
	}
	return fmt.Errorf("%s %#x outside the %d-bit address width", name, a, isa.AddrBits)
}

// Len returns the arena's instruction count.
func (a *Arena) Len() int { return int(a.count) }

// Bytes returns the size of the shared encoded stream in bytes.
func (a *Arena) Bytes() int { return len(a.data) }

// ID returns a stable hex identity for the instruction stream: the
// SHA-256 of its canonical v2 file encoding. Checkpoint keys use it as
// the trace-identity component for file-backed traces.
func (a *Arena) ID() string { return hex.EncodeToString(a.digest[:]) }

// Cursor returns a new independent read cursor positioned at the start.
// Cursors are cheap (a few words of decoder state); each is single-
// goroutine like any Source, but distinct cursors over one arena may run
// on distinct goroutines concurrently.
func (a *Arena) Cursor() *Cursor { return &Cursor{a: a} }

// Cursor is a read-only decoding position inside a shared Arena. It
// implements Source, BatchSource, Skipper, and WarmSkipper, so it slots
// into every consumer seam: the cycle engine's batched fetch, the
// sampled controller's warming pyramid, and plain scalar drains.
type Cursor struct {
	a   *Arena
	st  cursorState
	idx uint64 // records consumed
}

// Next implements Source.
func (c *Cursor) Next() (isa.Inst, bool) {
	if c.idx >= c.a.count {
		return isa.Inst{}, false
	}
	var in isa.Inst
	if err := c.a.decode(&c.st, &in); err != nil {
		// The build-time scan validated every record; reaching here means
		// the arena was corrupted in memory.
		panic("trace: arena cursor decode failed: " + err.Error())
	}
	c.idx++
	return in, true
}

// NextBatch implements BatchSource.
func (c *Cursor) NextBatch(dst []isa.Inst) int {
	n := 0
	for n < len(dst) && c.idx < c.a.count {
		if err := c.a.decode(&c.st, &dst[n]); err != nil {
			panic("trace: arena cursor decode failed: " + err.Error())
		}
		c.idx++
		n++
	}
	return n
}

// Reset implements Source.
func (c *Cursor) Reset() {
	c.st = cursorState{}
	c.idx = 0
}

// Skip implements Skipper in O(1) amortized: jump to the nearest seek-
// index snapshot at or before the target, then decode at most one index
// period of records without materializing them.
func (c *Cursor) Skip(n int) int {
	if n < 0 {
		n = 0
	}
	if rem := c.a.count - c.idx; uint64(n) > rem {
		n = int(rem)
	}
	target := c.idx + uint64(n)
	if si := target / ArenaIndexPeriod; si < uint64(len(c.a.snaps)) && si*ArenaIndexPeriod > c.idx {
		c.st.load(c.a.snaps[si])
		c.idx = si * ArenaIndexPeriod
	}
	for c.idx < target {
		if err := c.a.decode(&c.st, nil); err != nil {
			panic("trace: arena cursor decode failed: " + err.Error())
		}
		c.idx++
	}
	return n
}

// SkipWarm implements WarmSkipper: every skipped record is decoded (the
// warmer needs its footprint), reporting fetch-line crossings, memory
// effective addresses, and — when w is a BranchWarmer — conditional
// branch outcomes, exactly like the SkipWarmN fallback.
func (c *Cursor) SkipWarm(n int, w Warmer) int {
	if n < 0 {
		n = 0
	}
	if rem := c.a.count - c.idx; uint64(n) > rem {
		n = int(rem)
	}
	bw, hasBW := w.(BranchWarmer)
	lastLine, lineValid := uint64(0), false
	var in isa.Inst
	for i := 0; i < n; i++ {
		if err := c.a.decode(&c.st, &in); err != nil {
			panic("trace: arena cursor decode failed: " + err.Error())
		}
		c.idx++
		if la := in.LineAddr(); !lineValid || la != lastLine {
			lastLine, lineValid = la, true
			w.WarmFetch(la)
		}
		switch in.Class {
		case isa.Load, isa.Store:
			w.WarmMem(in.MemAddr)
		case isa.CondBranch:
			if hasBW {
				bw.WarmCond(in.PC, in.Taken)
			}
		}
	}
	return n
}
