// Package isa defines the architectural instruction model used by the
// simulator. Following the paper's methodology (§III-A), the modeled ISA
// is ARMv8-like: instructions are fixed-size (4 bytes), aligned, and each
// architectural instruction decodes to exactly one µ-op. A µ-op cache
// entry covers 32 bytes (8 instructions).
package isa

import "fmt"

// InstBytes is the fixed architectural instruction size in bytes.
const InstBytes = 4

// LineBytes is the instruction cache line size in bytes.
const LineBytes = 64

// EntryBytes is the code region covered by one µ-op cache entry.
const EntryBytes = 32

// EntryOps is the maximum number of µ-ops held by a µ-op cache entry.
const EntryOps = EntryBytes / InstBytes

// AddrBits is the model's address width: every PC, branch target and
// data address lies below 1<<AddrBits. The generator's layout sets it
// (code from 1 MiB, heap from 2^32 up to the stack, stack frames from
// 2^40, all under 2^41; trace.Profile.Validate bounds the heap), and a
// recorded trace is checked against it when it is loaded. Every tag
// array but the µ-op cache's holds 32-bit words, a valid bit beside a
// tag of at most 31 bits, which an address this wide always fits once
// the structure's Config.Validate has accepted its geometry.
const AddrBits = 41

// Class enumerates instruction classes. The control-flow classes mirror
// ChampSim's branch taxonomy, which the paper's frontend model relies on.
type Class uint8

const (
	// ALU is a simple integer operation (1-cycle latency).
	ALU Class = iota
	// Mul is a multi-cycle integer operation.
	Mul
	// FP is a floating-point operation.
	FP
	// Load reads memory.
	Load
	// Store writes memory.
	Store
	// CondBranch is a conditional direct branch.
	CondBranch
	// DirectJump is an unconditional direct branch.
	DirectJump
	// IndirectJump is an unconditional indirect branch.
	IndirectJump
	// Call is a direct call (pushes a return address).
	Call
	// IndirectCall is an indirect call.
	IndirectCall
	// Return pops the return address stack.
	Return
	numClasses
)

// NumClasses is the number of distinct instruction classes.
const NumClasses = int(numClasses)

var classNames = [NumClasses]string{
	"ALU", "Mul", "FP", "Load", "Store", "CondBranch", "DirectJump",
	"IndirectJump", "Call", "IndirectCall", "Return",
}

// String returns the class mnemonic.
func (c Class) String() string {
	if int(c) < NumClasses {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// IsBranch reports whether the class is any control-flow instruction.
func (c Class) IsBranch() bool {
	return c >= CondBranch
}

// IsConditional reports whether the class is a conditional branch.
func (c Class) IsConditional() bool { return c == CondBranch }

// IsIndirect reports whether the branch target comes from a register
// (i.e. must be predicted by an indirect target predictor or the RAS).
func (c Class) IsIndirect() bool {
	return c == IndirectJump || c == IndirectCall || c == Return
}

// IsCall reports whether the class pushes a return address.
func (c Class) IsCall() bool { return c == Call || c == IndirectCall }

// IsUncondTaken reports whether the class is always taken when executed.
func (c Class) IsUncondTaken() bool {
	return c == DirectJump || c == IndirectJump || c == Call ||
		c == IndirectCall || c == Return
}

// Inst is one dynamic architectural instruction as it appears in a trace.
// For branches, Taken and Target record the architecturally correct
// outcome; the simulator's predictors may of course disagree.
type Inst struct {
	// PC is the instruction address (4-byte aligned).
	PC uint64
	// Class is the instruction class.
	Class Class
	// Taken records the architectural direction (always true for
	// unconditional branches, false for non-branches).
	Taken bool
	// Target is the architectural next PC when Taken (undefined
	// otherwise; non-branches fall through to PC+4).
	Target uint64
	// MemAddr is the effective address for loads and stores.
	MemAddr uint64
	// Dst is the destination register (0 means none).
	Dst uint8
	// Src1 and Src2 are source registers (0 means none).
	Src1, Src2 uint8
}

// NextPC returns the architecturally correct successor address.
func (in *Inst) NextPC() uint64 {
	if in.Class.IsBranch() && in.Taken {
		return in.Target
	}
	return in.PC + InstBytes
}

// LineAddr returns the 64-byte cache line address containing PC.
func (in *Inst) LineAddr() uint64 { return in.PC &^ (LineBytes - 1) }

// RegCount is the number of architectural registers modeled (register 0
// is the hardwired "no register" marker, as in the CVP-1 trace format).
const RegCount = 64
