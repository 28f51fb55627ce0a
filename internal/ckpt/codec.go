// Package ckpt serializes functional-warm simulator state so a sweep
// can pay each sampling fast-forward once instead of once per config,
// and holds the one content-addressed store (Cache) that memoizes and
// persists both those checkpoints and runq's job results.
//
// The codec is deliberately dumb: a flat append-only byte stream of
// varints (the same encoding family as the trace codec) wrapped in a
// versioned, digest-stamped envelope. There is no reflection and no
// schema — each simulator structure writes and reads its own fields in
// a fixed order, and section tags give corruption and skew errors a
// name instead of a byte offset. Determinism is load-bearing: the same
// state must serialize to the same bytes on every run, so nothing here
// may iterate a map or consult time.
package ckpt

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

const (
	// envMagic brands checkpoint blobs (UCPC = µ-op Cache Prefetching
	// Checkpoint).
	envMagic = "UCPC"
	// envVersion is the blob format version. Bump it whenever any
	// structure's field order or meaning changes; stale blobs are then
	// rejected at Open instead of silently misread. (Model-level changes
	// are already keyed out by sim.ModelVersion in the checkpoint key.)
	envVersion = 4
)

// Writer accumulates a checkpoint payload. The zero value is ready to
// use; Seal wraps the payload in the envelope and returns the blob.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with the envelope header pre-allocated.
func NewWriter() *Writer {
	w := &Writer{buf: make([]byte, 0, 1<<16)}
	w.buf = append(w.buf, envMagic...)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, envVersion)
	return w
}

// Section writes a named boundary marker. Readers consume it with the
// same name, so a writer/reader skew fails with "section X: got Y"
// instead of decoding garbage numbers.
func (w *Writer) Section(name string) {
	w.Uvarint(uint64(len(name)))
	w.buf = append(w.buf, name...)
}

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// Varint appends a signed (zigzag) varint.
func (w *Writer) Varint(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// Byte appends one raw byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Bool appends a bool as one byte.
func (w *Writer) Bool(b bool) {
	if b {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// I8 appends a signed 8-bit counter as one raw byte.
func (w *Writer) I8(v int8) { w.buf = append(w.buf, byte(v)) }

// U64s appends a length-prefixed []uint64, each element a uvarint:
// small values (counters, short histories, stamps) take a byte or two.
// A word with a high bit set costs up to 10 bytes, so packed valid|tag
// arrays go through Sets instead.
func (w *Writer) U64s(s []uint64) {
	w.Uvarint(uint64(len(s)))
	for _, v := range s {
		w.Uvarint(v)
	}
}

// Sets appends a set-associative tag array (len(tags)/ways sets of
// ways entries each) whose ways pack a valid bit and a tag as valid|tag,
// zero meaning empty. The valid ways of every set must form a prefix —
// recency-ordered sets fill front to back and fill-in-order structures
// never open a hole — so a set is written as its valid-way count, then
// each valid way's tag with the valid bit stripped: an empty way costs
// nothing and a valid one costs its tag, not the valid bit's worst-case
// uvarint. A valid way after an empty one would be dropped silently, so
// it panics instead.
func (w *Writer) Sets(tags []uint64, ways int, valid uint64) {
	w.Uvarint(uint64(len(tags)))
	for base := 0; base < len(tags); base += ways {
		set := tags[base : base+ways]
		n := 0
		for n < len(set) && set[n] != 0 {
			n++
		}
		for _, tv := range set[n:] {
			if tv != 0 {
				panic(fmt.Sprintf("ckpt: set %d: valid way after empty way %d", base/ways, n))
			}
		}
		w.Uvarint(uint64(n))
		for _, tv := range set[:n] {
			w.Uvarint(tv &^ valid)
		}
	}
}

// U8s appends a length-prefixed []uint8 verbatim.
func (w *Writer) U8s(s []uint8) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// I8s appends a length-prefixed []int8 verbatim.
func (w *Writer) I8s(s []int8) {
	w.Uvarint(uint64(len(s)))
	for _, v := range s {
		w.buf = append(w.buf, byte(v))
	}
}

// Len returns the current payload size (envelope included).
func (w *Writer) Len() int { return len(w.buf) }

// Seal stamps the SHA-256 of everything written so far onto the end and
// returns the finished blob, in an array of exactly its length: a
// store holds blobs for its lifetime, so the writer's growth slack must
// not come with them. The Writer must not be used afterwards.
func (w *Writer) Seal() []byte {
	sum := sha256.Sum256(w.buf)
	blob := make([]byte, len(w.buf)+len(sum))
	copy(blob[copy(blob, w.buf):], sum[:])
	w.buf = nil
	return blob
}

// Verify checks a blob's envelope (magic, version, digest) without
// decoding the payload. It is what the store uses to decide whether an
// on-disk file is a usable checkpoint or a miss.
func Verify(blob []byte) error {
	const hdr = len(envMagic) + 4
	if len(blob) < hdr+sha256.Size {
		return errors.New("ckpt: blob truncated")
	}
	if string(blob[:4]) != envMagic {
		return errors.New("ckpt: bad magic")
	}
	if v := binary.LittleEndian.Uint32(blob[4:8]); v != envVersion {
		return fmt.Errorf("ckpt: unsupported version %d", v)
	}
	body, tail := blob[:len(blob)-sha256.Size], blob[len(blob)-sha256.Size:]
	if sha256.Sum256(body) != [sha256.Size]byte(tail) {
		return errors.New("ckpt: digest mismatch")
	}
	return nil
}

// Reader decodes a sealed blob. All read methods are sticky on error:
// after the first failure every subsequent read returns zero values, so
// restore code can decode straight through and check Err once.
type Reader struct {
	data []byte
	off  int
	err  error
}

// Open verifies the envelope and returns a Reader positioned at the
// first payload byte.
func Open(blob []byte) (*Reader, error) {
	if err := Verify(blob); err != nil {
		return nil, err
	}
	return &Reader{data: blob[:len(blob)-sha256.Size], off: len(envMagic) + 4}, nil
}

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Failf records a caller-detected decode failure (e.g. a geometry
// mismatch the caller checks itself) with the usual sticky semantics.
func (r *Reader) Failf(format string, args ...any) {
	r.fail(fmt.Errorf("ckpt: "+format, args...))
}

// Section consumes a boundary marker, failing if the stream holds a
// different name (field-order skew between save and load code).
func (r *Reader) Section(name string) {
	n := r.Uvarint()
	if r.err != nil {
		return
	}
	if n > uint64(len(r.data)-r.off) {
		r.fail(fmt.Errorf("ckpt: section %q: truncated name", name))
		return
	}
	got := string(r.data[r.off : r.off+int(n)])
	r.off += int(n)
	if got != name {
		r.fail(fmt.Errorf("ckpt: section %q: got %q", name, got))
	}
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail(errors.New("ckpt: truncated uvarint"))
		return 0
	}
	r.off += n
	return v
}

// Varint reads a signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		r.fail(errors.New("ckpt: truncated varint"))
		return 0
	}
	r.off += n
	return v
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.data) {
		r.fail(errors.New("ckpt: truncated byte"))
		return 0
	}
	b := r.data[r.off]
	r.off++
	return b
}

// Bool reads a bool, rejecting bytes other than 0/1.
func (r *Reader) Bool() bool {
	b := r.Byte()
	if r.err == nil && b > 1 {
		r.fail(fmt.Errorf("ckpt: bad bool byte %d", b))
	}
	return b == 1
}

// I8 reads a signed 8-bit counter.
func (r *Reader) I8() int8 { return int8(r.Byte()) }

// U64sInto fills dst from a length-prefixed []uint64, failing on a
// length mismatch — the caller's slice length encodes the configured
// geometry, so a mismatch means the blob belongs to a different config.
func (r *Reader) U64sInto(dst []uint64) {
	n := r.Uvarint()
	if r.err != nil {
		return
	}
	if n != uint64(len(dst)) {
		r.fail(fmt.Errorf("ckpt: []uint64 length %d, want %d", n, len(dst)))
		return
	}
	// Restore-path loop (the history ring, the RAS, the ITTAGE base
	// table, µ-op cache tags and stamps): decode in place instead of
	// one sticky-error method call per element.
	data, off := r.data, r.off
	for i := range dst {
		v, next := uvarintAt(data, off)
		if next < 0 {
			r.fail(errors.New("ckpt: truncated uvarint"))
			return
		}
		dst[i], off = v, next
	}
	r.off = off
}

// uvarintAt decodes the uvarint at data[off:], returning it and the
// offset just past it, or a negative offset if it is truncated or
// overflows. Single-byte values take a fast path.
func uvarintAt(data []byte, off int) (uint64, int) {
	if off < len(data) && data[off] < 0x80 {
		return uint64(data[off]), off + 1
	}
	v, w := binary.Uvarint(data[off:])
	if w <= 0 {
		return 0, -1
	}
	return v, off + w
}

// SetsInto fills dst, a set-associative tag array of the given
// associativity, from a Sets encoding. It rejects any encoding Sets
// could not have written from a valid array: a total entry count other
// than len(dst) (the blob belongs to another geometry), a set with more
// than ways valid ways, a tag that already carries the valid bit or any
// higher bit, and one tag held twice within a set. Each set's valid
// ways land at its front with the valid bit restored, and the rest of
// the set is cleared.
func (r *Reader) SetsInto(dst []uint64, ways int, valid uint64) {
	n := r.Uvarint()
	if r.err != nil {
		return
	}
	if n != uint64(len(dst)) {
		r.fail(fmt.Errorf("ckpt: %d set entries, want %d", n, len(dst)))
		return
	}
	data, off := r.data, r.off
	for base := 0; base < len(dst); base += ways {
		set := dst[base : base+ways]
		cnt, next := uvarintAt(data, off)
		if next < 0 {
			r.fail(errors.New("ckpt: truncated uvarint"))
			return
		}
		off = next
		if cnt > uint64(ways) {
			r.fail(fmt.Errorf("ckpt: set %d: %d valid ways, want at most %d", base/ways, cnt, ways))
			return
		}
		for i := range int(cnt) {
			tag, next := uvarintAt(data, off)
			if next < 0 {
				r.fail(errors.New("ckpt: truncated uvarint"))
				return
			}
			off = next
			if tag >= valid {
				r.fail(fmt.Errorf("ckpt: set %d: tag %#x carries the valid bit %#x or above", base/ways, tag, valid))
				return
			}
			tv := valid | tag
			if slices.Contains(set[:i], tv) {
				r.fail(fmt.Errorf("ckpt: set %d: tag %#x held twice", base/ways, tag))
				return
			}
			set[i] = tv
		}
		clear(set[cnt:])
	}
	r.off = off
}

// U8sInto fills dst from a length-prefixed []uint8 with the same
// length check as U64sInto.
func (r *Reader) U8sInto(dst []uint8) {
	copy(dst, r.bytesOf(len(dst), "[]uint8"))
}

// U8s reads a length-prefixed []uint8 of any length, the counterpart
// of Writer.U8s when the reader cannot know the length up front. The
// result aliases the blob, so it is read-only.
func (r *Reader) U8s() []uint8 {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.data)-r.off) {
		r.fail(errors.New("ckpt: truncated byte string"))
		return nil
	}
	s := r.data[r.off : r.off+int(n) : r.off+int(n)]
	r.off += int(n)
	return s
}

// I8sInto fills dst from a length-prefixed []int8 with the same length
// check as U64sInto.
func (r *Reader) I8sInto(dst []int8) {
	for i, b := range r.bytesOf(len(dst), "[]int8") {
		dst[i] = int8(b)
	}
}

// bytesOf reads a length-prefixed byte string that must hold exactly
// want bytes, failing (and returning nil) otherwise.
func (r *Reader) bytesOf(want int, what string) []uint8 {
	s := r.U8s()
	if r.err == nil && len(s) != want {
		r.fail(fmt.Errorf("ckpt: %s length %d, want %d", what, len(s), want))
		return nil
	}
	return s
}

// Close fails unless the payload was consumed exactly: trailing bytes
// mean the reader and writer disagree about the format.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.data) {
		return fmt.Errorf("ckpt: %d trailing payload bytes", len(r.data)-r.off)
	}
	return nil
}
