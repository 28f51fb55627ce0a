package sim

import "ucp/internal/ckpt"

// captureWarm seals the machine's functional-warm state into a blob, as
// warmTo publishes it, from a writer that grows from the header.
func (m *Machine) captureWarm() []byte {
	w := ckpt.NewWriter(0)
	m.saveWarm(w)
	return w.Seal()
}
