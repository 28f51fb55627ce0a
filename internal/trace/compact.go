package trace

import (
	"encoding/binary"
	"io"

	"ucp/internal/isa"
)

// The trace file format (.ucpt, version 2) is a 16-byte header — magic,
// version, little-endian instruction count — followed by one variable-
// length record per instruction. Sequential-PC prediction plus zigzag
// varint deltas keep a record at ~2-6 bytes: control-flow consistency
// makes the PC of almost every instruction predictable from its
// predecessor, so most records carry no PC bytes at all. The target of a
// not-taken branch is not stored; the model never reads it.
//
// The Arena is the format's only codec: arenaBuilder.add encodes a
// record, Arena.decode parses one, and parseArena validates a whole file.
// WriteCompact, ReadAny and LoadArena are thin wrappers around them.

const (
	fileMagic      = "UCPT"
	compactVersion = 2
	fileHeaderLen  = 16
	// maxInsts bounds the header's instruction count. The count is still
	// untrusted below it: parseArena only believes records that parse.
	maxInsts = 1 << 30
)

// Record flag layout: bits 0-3 class, bit 4 taken, bit 5 explicit PC
// follows, bit 6 memory address delta follows, bit 7 register triple
// follows (omitted when identical to the previous record's).
const (
	flagTaken = 1 << 4
	flagPC    = 1 << 5
	flagMem   = 1 << 6
	flagRegs  = 1 << 7
	classMask = 0x0f
)

// fileHeader returns the header of a trace file holding n instructions.
func fileHeader(n uint64) []byte {
	hdr := make([]byte, fileHeaderLen)
	copy(hdr, fileMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], compactVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], n)
	return hdr
}

// WriteCompact serializes instructions as a trace file. The file's
// SHA-256 is the ID of the arena built from the same instructions.
func WriteCompact(w io.Writer, insts []isa.Inst) error {
	a := NewArena(insts)
	if _, err := w.Write(fileHeader(a.count)); err != nil {
		return err
	}
	_, err := w.Write(a.data)
	return err
}

// ReadAny decodes a whole trace file into a slice. It accepts exactly
// the files LoadArena accepts.
func ReadAny(r io.Reader) ([]isa.Inst, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	a, err := parseArena(raw)
	if err != nil {
		return nil, err
	}
	return Collect(a.Cursor(), a.Len()), nil
}
