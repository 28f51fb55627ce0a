package ckpt

import "testing"

// FuzzOpen feeds arbitrary bytes to Open and, when the envelope
// verifies, decodes the sealed() field sequence through the Reader:
// every malformed input must surface as an error, never a panic.
func FuzzOpen(f *testing.F) {
	w := NewWriter(0)
	w.Section("hdr")
	w.Uvarint(42)
	w.Varint(-7)
	w.Byte(0xab)
	w.Bool(true)
	w.I8(-3)
	w.U64s([]uint64{0, 1, 1 << 62, 12345})
	Sets(w, testSets, 2, 1<<63)
	w.U8s([]uint8{9, 8, 7})
	w.I8s([]int8{-1, 0, 1})
	w.Section("tail")
	blob := w.Seal()
	f.Add(blob)
	f.Add(blob[:len(blob)-1])
	f.Add([]byte{})
	f.Add([]byte("UCPC\x01\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Open(data)
		if err != nil {
			return
		}
		r.Section("hdr")
		r.Uvarint()
		r.Varint()
		r.Byte()
		r.Bool()
		r.I8()
		r.U64sInto(make([]uint64, 4))
		SetsInto(r, make([]uint64, len(testSets)), 2, 1<<63)
		r.U8sInto(make([]uint8, 3))
		r.I8sInto(make([]int8, 3))
		r.Section("tail")
		_ = r.Close()
	})
}
