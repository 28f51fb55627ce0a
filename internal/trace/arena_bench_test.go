package trace

import (
	"bytes"
	"testing"

	"ucp/internal/isa"
)

// benchInsts is sized so decode throughput dominates setup noise while
// keeping -benchtime=1x smokes fast.
const benchInsts = 200_000

func benchStream(b *testing.B) []isa.Inst {
	b.Helper()
	prog, err := BuildProgram(QuickProfiles()[0])
	if err != nil {
		b.Fatal(err)
	}
	return Collect(NewWalker(prog), benchInsts)
}

// BenchmarkTraceDecode measures raw v2 file ingest (ReadAny), the cost
// every runq job used to pay per job before the shared arena.
func BenchmarkTraceDecode(b *testing.B) {
	insts := benchStream(b)
	var buf bytes.Buffer
	if err := WriteCompact(&buf, insts); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := ReadAny(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != len(insts) {
			b.Fatalf("decoded %d insts, want %d", len(got), len(insts))
		}
	}
	b.ReportMetric(float64(b.N)*float64(len(insts))/b.Elapsed().Seconds(), "insts/s")
}

// BenchmarkArenaCursor measures the steady-state cursor drain over a
// shared arena — what each runq job pays instead of a full ReadAny. The
// drain itself must be allocation-free.
func BenchmarkArenaCursor(b *testing.B) {
	a := NewArena(benchStream(b))
	batch := make([]isa.Inst, 512)
	c := a.Cursor()
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		c.Reset()
		for {
			n := c.NextBatch(batch)
			if n == 0 {
				break
			}
			total += n
		}
	}
	if total != b.N*a.Len() {
		b.Fatalf("drained %d insts, want %d", total, b.N*a.Len())
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "insts/s")
}

// BenchmarkArenaSkip measures the seek-index fast path: each iteration
// performs a long Skip that would otherwise decode millions of records.
func BenchmarkArenaSkip(b *testing.B) {
	a := NewArena(benchStream(b))
	c := a.Cursor()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Reset()
		if got := c.Skip(a.Len() - 1); got != a.Len()-1 {
			b.Fatalf("Skip = %d", got)
		}
	}
}

// The generator-versus-arena break-even. A synthetic workload can be
// streamed from its generator (Walker) or materialized once into an
// Arena and replayed through cursors; the arena only pays when its
// one-time build is recovered by cheaper skips. These benchmarks price
// each side per instruction on one large-footprint profile (srv203) and
// one small one (crypto01):
//
//	go test -run '^$' -bench 'Walker|ArenaBuild|ArenaSkipWarm' -benchtime 5x ./internal/trace

// profileBenchInsts is the skip length and arena size of the
// per-profile benchmarks: long enough that per-instruction costs
// dominate, short enough for a -benchtime=1x smoke.
const profileBenchInsts = 1_000_000

// breakEvenProfiles are the benchmarked profiles: srv203's code and data
// footprints are among the largest in the default set, crypto01's among
// the smallest.
var breakEvenProfiles = []string{"srv203", "crypto01"}

// benchProgram builds the named default profile's program.
func benchProgram(b *testing.B, name string) *Program {
	b.Helper()
	prof, ok := ProfileByName(name)
	if !ok {
		b.Fatalf("no profile %q", name)
	}
	prog, err := BuildProgram(prof)
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// forEachProfile runs body as one sub-benchmark per break-even profile
// and reports its per-instruction cost, body handling profileBenchInsts
// instructions per iteration.
func forEachProfile(b *testing.B, body func(b *testing.B, prog *Program)) {
	for _, name := range breakEvenProfiles {
		b.Run(name, func(b *testing.B) {
			prog := benchProgram(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			body(b, prog)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*profileBenchInsts), "ns/inst")
		})
	}
}

// countWarmer receives a warming skip's footprint and only counts it,
// so the warm-skip benchmarks price the trace layer alone.
type countWarmer struct{ fetch, mem, cond int }

func (w *countWarmer) WarmFetch(uint64)      { w.fetch++ }
func (w *countWarmer) WarmMem(uint64)        { w.mem++ }
func (w *countWarmer) WarmCond(uint64, bool) { w.cond++ }

// BenchmarkWalkerSkip measures the generator's plain fast-forward: the
// walk state advances, no instruction is materialized.
func BenchmarkWalkerSkip(b *testing.B) {
	forEachProfile(b, func(b *testing.B, prog *Program) {
		const n = profileBenchInsts
		w := NewWalker(prog)
		for i := 0; i < b.N; i++ {
			w.Reset()
			if got := w.Skip(n); got != n {
				b.Fatalf("Skip = %d, want %d", got, n)
			}
		}
	})
}

// BenchmarkWalkerSkipWarm measures the generator's warming skip, the
// sampled and boundary fast-forward tier: the skip also reports every
// fetch line, memory address and conditional outcome.
func BenchmarkWalkerSkipWarm(b *testing.B) {
	forEachProfile(b, func(b *testing.B, prog *Program) {
		const n = profileBenchInsts
		w := NewWalker(prog)
		var wm countWarmer
		for i := 0; i < b.N; i++ {
			w.Reset()
			if got := w.SkipWarm(n, &wm); got != n {
				b.Fatalf("SkipWarm = %d, want %d", got, n)
			}
		}
	})
}

// BenchmarkArenaSkipWarm is BenchmarkWalkerSkipWarm's arena
// counterpart: the same warming skip decoded from a prebuilt arena
// (its build is BenchmarkArenaBuild).
func BenchmarkArenaSkipWarm(b *testing.B) {
	forEachProfile(b, func(b *testing.B, prog *Program) {
		const n = profileBenchInsts
		b.StopTimer()
		c := ArenaFromSource(NewWalker(prog), n).Cursor()
		b.StartTimer()
		var wm countWarmer
		for i := 0; i < b.N; i++ {
			c.Reset()
			if got := c.SkipWarm(n, &wm); got != n {
				b.Fatalf("SkipWarm = %d, want %d", got, n)
			}
		}
	})
}

// BenchmarkArenaBuild measures materializing a generated stream into an
// arena: one walk with every instruction delivered and encoded.
func BenchmarkArenaBuild(b *testing.B) {
	forEachProfile(b, func(b *testing.B, prog *Program) {
		const n = profileBenchInsts
		for i := 0; i < b.N; i++ {
			if a := ArenaFromSource(NewWalker(prog), n); a.Len() != n {
				b.Fatalf("arena holds %d insts, want %d", a.Len(), n)
			}
		}
	})
}
