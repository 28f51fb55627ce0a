package main

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"ucp/internal/core"
	"ucp/internal/sim"
)

// TestResultJSONUCPKeys pins the keys of -json's ucp object and checks
// the stop counts and walked instructions per path against core.Stats.
func TestResultJSONUCPKeys(t *testing.T) {
	r := sim.Result{UCP: core.Stats{
		Triggers: 4, TriggersBlocked: 9, WalkedInsts: 10,
		StopThreshold: 1, StopNoBranch: 2, StopIndirect: 3, StopRASEmpty: 5, StopNewH2P: 6,
	}}
	data, err := json.Marshal(resultJSON(r))
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		UCP map[string]any `json:"ucp"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range out.UCP {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := []string{"btbConflicts", "fills", "linesPerPath", "prefetches", "stops",
		"storageKB", "triggers", "triggersBlocked", "walkedPerPath"}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("ucp keys %v, want %v", keys, want)
	}
	wantStops := map[string]any{"threshold": 1.0, "noBranch": 2.0, "indirect": 3.0, "rasEmpty": 5.0, "newH2P": 6.0}
	if !reflect.DeepEqual(out.UCP["stops"], wantStops) {
		t.Errorf("stops %v, want %v", out.UCP["stops"], wantStops)
	}
	if out.UCP["triggersBlocked"] != 9.0 || out.UCP["walkedPerPath"] != 2.5 {
		t.Errorf("triggersBlocked %v, walkedPerPath %v; want 9 and 2.5", out.UCP["triggersBlocked"], out.UCP["walkedPerPath"])
	}
}
