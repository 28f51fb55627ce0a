// Package fixture exercises the traceopen analyzer: the raw trace
// decoder may only be called from internal/trace itself and from
// cmd/tracegen — sweep code shares one decoded arena per batch.
package fixture

import (
	"os"

	"ucp/internal/trace"
)

// Bad decodes a trace file directly, materializing a private []isa.Inst
// per call — the per-job redundancy the shared arena eliminates.
func Bad(f *os.File) error {
	_, err := trace.ReadAny(f) // want "direct trace decode via trace.ReadAny is forbidden"
	return err
}

// Good loads through the arena entry point: one decode, shared cursors,
// content-addressed identity.
func Good(path string) (*trace.Arena, error) {
	return trace.LoadArena(path)
}

// Suppressed uses the ignore-directive escape hatch: a deliberate
// one-off decode (e.g. a validation tool) produces no finding.
func Suppressed(f *os.File) error {
	_, err := trace.ReadAny(f) //ucplint:ignore traceopen
	return err
}
