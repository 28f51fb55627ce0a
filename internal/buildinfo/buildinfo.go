// Package buildinfo renders the -version output shared by every
// binary: the simulator model version and each persistent-format
// schema stamp, plus the VCS revision baked in by the Go toolchain.
// When a cache replay, a checkpoint restore, or a sweepd submission
// misbehaves, the first diagnostic question is "are the two sides the
// same model?" — this is the surface that answers it.
package buildinfo

import (
	"fmt"
	"io"
	"runtime/debug"

	"ucp/internal/runq"
	"ucp/internal/sim"
	"ucp/internal/sweepd"
)

// Fprint writes the version report for the named binary.
func Fprint(w io.Writer, binary string) {
	fmt.Fprintf(w, "%s (ucp)\n", binary)
	fmt.Fprintf(w, "  model version:     %s\n", sim.ModelVersion)
	fmt.Fprintf(w, "  result schema:     %s\n", runq.SchemaVersion)
	fmt.Fprintf(w, "  checkpoint schema: %s\n", sim.BoundaryKeySchema)
	fmt.Fprintf(w, "  sweepd protocol:   %s\n", sweepd.ProtocolVersion)
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return
	}
	fmt.Fprintf(w, "  go:                %s\n", bi.GoVersion)
	var rev, modified string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				modified = " (modified)"
			}
		}
	}
	if rev != "" {
		fmt.Fprintf(w, "  vcs revision:      %s%s\n", rev, modified)
	}
}
