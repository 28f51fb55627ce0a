package cache

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"ucp/internal/ckpt"
)

// TestLoadStateRejectsImpossibleSets restores cache and TLB states of
// two four-way sets. The unedited state restores as saved. A set order
// lru.ToFront could not produce cannot be written — a valid way after an
// empty one panics at capture — and hand-encoded sections the set codec
// could not have written must fail to load: more valid ways than the
// set has, a tag carrying the valid bit, one tag in two ways, and a
// different set count.
func TestLoadStateRejectsImpossibleSets(t *testing.T) {
	type structure interface {
		SaveState(*ckpt.Writer)
		LoadState(*ckpt.Reader)
	}
	// Each builder returns a fresh structure with three of set 0's four
	// ways filled, and its tag array; its name is its checkpoint section.
	builders := []struct {
		name  string
		build func() (structure, []uint64)
	}{
		{"cache", func() (structure, []uint64) {
			c := New(Config{Name: "T", SizeBytes: 2 * 4 * LineBytes, Ways: 4, HitLatency: 1, MSHRs: 4}, &FixedLatency{})
			for _, block := range []uint64{0, 2, 4} {
				c.WarmLine(block * LineBytes)
			}
			return c, c.tags
		}},
		{"tlb", func() (structure, []uint64) {
			tlb := NewTLB(TLBConfig{Entries: 8, Ways: 4, HitLatency: 1, PageBits: 12}, nil)
			for _, page := range []uint64{0, 2, 4} {
				tlb.Translate(page<<12, 0)
			}
			return tlb, tlb.tags
		}},
	}
	for _, b := range builders {
		t.Run(b.name+"/as saved", func(t *testing.T) {
			saved, tags := b.build()
			w := ckpt.NewWriter()
			saved.SaveState(w)
			r, err := ckpt.Open(w.Seal())
			if err != nil {
				t.Fatal(err)
			}
			restored, got := b.build()
			clear(got)
			restored.LoadState(r)
			if r.Err() != nil || !slices.Equal(got, tags) {
				t.Fatalf("err %v, restored %#x, saved %#x", r.Err(), got, tags)
			}
		})
		t.Run(b.name+"/valid after empty", func(t *testing.T) {
			saved, tags := b.build()
			tags[1] = 0
			defer func() {
				if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "valid way after empty way 1") {
					t.Fatalf("panic %v, want one naming the hole", p)
				}
			}()
			saved.SaveState(ckpt.NewWriter())
		})
		for _, tc := range []struct {
			name    string
			entries uint64
			sets    [][]uint64
			want    string
		}{
			{"count above ways", 8, [][]uint64{{1, 2, 3, 4, 5}, {}}, "set 0: 5 valid ways, want at most 4"},
			{"valid bit", 8, [][]uint64{{1, validBit | 2}, {}}, "carries the valid bit"},
			{"tag twice", 8, [][]uint64{{}, {1, 2, 1}}, "set 1: tag 0x1 held twice"},
			{"wrong set count", 4, [][]uint64{{1, 2}}, "4 set entries, want 8"},
		} {
			t.Run(b.name+"/"+tc.name, func(t *testing.T) {
				w := ckpt.NewWriter()
				w.Section(b.name)
				w.Uvarint(tc.entries)
				for _, set := range tc.sets {
					w.Uvarint(uint64(len(set)))
					for _, tag := range set {
						w.Uvarint(tag)
					}
				}
				saveStats(w, &Stats{})
				r, err := ckpt.Open(w.Seal())
				if err != nil {
					t.Fatal(err)
				}
				restored, _ := b.build()
				restored.LoadState(r)
				if r.Err() == nil || !strings.Contains(r.Err().Error(), tc.want) {
					t.Fatalf("err %v, want one containing %q", r.Err(), tc.want)
				}
			})
		}
	}
}
