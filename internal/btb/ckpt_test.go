package btb

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ucp/internal/ckpt"
)

// smallBTB is a four-set, four-way BTB with three branches in set 0
// and one in set 1.
func smallBTB() *BTB {
	b := New(Config{Entries: 16, Ways: 4, Banks: 1})
	for i, pc := range []uint64{0x1000, 0x1010, 0x1020, 0x1004} {
		b.Insert(pc, pc+0x100, BranchKind(i))
	}
	b.Lookup(0x1000)
	return b
}

// TestBTBStateRoundTrip restores a saved BTB into one holding other
// entries: tags, payloads and stats must match the saved BTB,
// empty ways included, and a recapture must give the same bytes.
func TestBTBStateRoundTrip(t *testing.T) {
	saved := smallBTB()
	w := ckpt.NewWriter(0)
	saved.SaveState(w)
	blob := w.Seal()
	r, err := ckpt.Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	restored := New(Config{Entries: 16, Ways: 4, Banks: 1})
	for pc := uint64(0x2000); pc < 0x2100; pc += 4 {
		restored.Insert(pc, pc, KindIndirect)
	}
	restored.LoadState(r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored, saved) {
		t.Fatalf("restored %+v, saved %+v", restored, saved)
	}
	w = ckpt.NewWriter(0)
	restored.SaveState(w)
	if !bytes.Equal(w.Seal(), blob) {
		t.Fatal("recapture after restore differs from the capture")
	}
}

// TestBTBLoadStateRejects feeds hand-encoded btb sections the BTB could
// not have written — more valid ways than a set has, a tag carrying the
// valid bit, one tag in two ways, a different set count, and a branch
// kind outside the four classes — and requires a reader error. A tag array with a valid way after an empty
// one must not be written.
func TestBTBLoadStateRejects(t *testing.T) {
	for _, tc := range []struct {
		name    string
		entries uint64
		sets    [][]uint64
		kind    byte
		want    string
	}{
		{"count above ways", 16, [][]uint64{{1, 2, 3, 4, 5}, {}, {}, {}}, 0, "set 0: 5 valid ways, want at most 4"},
		{"valid bit", 16, [][]uint64{{validBit | 1}, {}, {}, {}}, 0, "carries the valid bit"},
		{"tag twice", 16, [][]uint64{{}, {}, {7, 7}, {}}, 0, "set 2: tag 0x7 held twice"},
		{"wrong set count", 12, [][]uint64{{1}, {}, {}}, 0, "12 set entries, want 16"},
		{"bad kind", 16, [][]uint64{{1}, {}, {}, {}}, byte(KindReturn) + 1, "branch kind 4"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := ckpt.NewWriter(0)
			w.Section("btb")
			w.Uvarint(tc.entries)
			valid := 0
			for _, set := range tc.sets {
				w.Uvarint(uint64(len(set)))
				for _, tag := range set {
					w.Uvarint(tag)
				}
				valid += len(set)
			}
			for range valid {
				w.Uvarint(0x4000) // target
				w.Byte(tc.kind)
			}
			saveStats(w, &Stats{})
			r, err := ckpt.Open(w.Seal())
			if err != nil {
				t.Fatal(err)
			}
			New(Config{Entries: 16, Ways: 4, Banks: 1}).LoadState(r)
			if r.Err() == nil || !strings.Contains(r.Err().Error(), tc.want) {
				t.Fatalf("err %v, want one containing %q", r.Err(), tc.want)
			}
		})
	}
	t.Run("valid after empty", func(t *testing.T) {
		b := smallBTB()
		b.tags[1] = 0
		defer func() {
			if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "valid way after empty way 1") {
				t.Fatalf("panic %v, want one naming the hole", p)
			}
		}()
		b.SaveState(ckpt.NewWriter(0))
	})
}
