package cache

import (
	"slices"
	"strings"
	"testing"

	"ucp/internal/ckpt"
)

// TestLoadStateRejectsImpossibleSets restores cache and TLB states whose
// set 0 recency order could not arise — a valid way after an empty one,
// or one tag in two ways — and requires a reader error, while the
// unedited state restores as saved.
func TestLoadStateRejectsImpossibleSets(t *testing.T) {
	type structure interface {
		SaveState(*ckpt.Writer)
		LoadState(*ckpt.Reader)
	}
	// Each builder returns a fresh structure with three of set 0's four
	// ways filled, and its tag array.
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
		for _, tc := range []struct {
			name string
			edit func(set []uint64)
			want string
		}{
			{"as saved", func([]uint64) {}, ""},
			{"valid after empty", func(set []uint64) { set[1] = 0 }, "valid way 2 after empty way 1"},
			{"tag twice", func(set []uint64) { set[2] = set[0] }, "held twice"},
		} {
			t.Run(b.name+"/"+tc.name, func(t *testing.T) {
				saved, tags := b.build()
				tc.edit(tags[:4])
				w := ckpt.NewWriter()
				saved.SaveState(w)
				r, err := ckpt.Open(w.Seal())
				if err != nil {
					t.Fatal(err)
				}
				restored, got := b.build()
				clear(got)
				restored.LoadState(r)
				if tc.want == "" {
					if r.Err() != nil || !slices.Equal(got, tags) {
						t.Fatalf("err %v, restored %#x, saved %#x", r.Err(), got, tags)
					}
					return
				}
				if r.Err() == nil || !strings.Contains(r.Err().Error(), tc.want) {
					t.Fatalf("err %v, want one containing %q", r.Err(), tc.want)
				}
			})
		}
	}
}
