package runq

import (
	"runtime"
	"strings"
	"testing"
)

// TestSealRecordAllocs holds sealing one result record to about its own
// size: the writer is sized from the JSON, not from a fixed 64 KiB
// start (70,943 B in 8 allocations for a 1,895-byte record).
func TestSealRecordAllocs(t *testing.T) {
	js := []byte(`{"key":"` + strings.Repeat("0123456789abcdef", 120) + `"}`)
	if blob := sealRecord(js); len(blob) < len(js) {
		t.Fatalf("sealed %d-byte JSON into %d bytes", len(js), len(blob))
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		sealRecord(js)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 8<<10 {
		t.Errorf("sealing a %d-byte record allocates %d B, want < 8 KiB", len(js), per)
	} else {
		t.Logf("sealing a %d-byte record allocates %d B", len(js), per)
	}
}
