package sim

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"ucp/internal/ckpt"
	"ucp/internal/core"
	"ucp/internal/trace"
)

// recycleProgram builds the named profile's program.
func recycleProgram(t *testing.T, name string) *trace.Program {
	t.Helper()
	prof, ok := trace.ProfileByName(name)
	if !ok {
		t.Fatalf("profile %s missing", name)
	}
	prog, err := trace.BuildProgram(prof)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// noGC stops automatic collections for the rest of the test: a
// collection that completes between a release and the next build drops
// the released arrays (package recycle), and the tests below must know
// whether the build reused them. Each test collects explicitly instead.
func noGC(t *testing.T) {
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
}

// holdMachines builds n machines of cfg over prog and steps each for
// cycles cycles. While they are held they own every free array of
// their geometry (the free lists keep at most GOMAXPROCS of each), so a
// machine built meanwhile gets fresh arrays; released, they leave
// arrays dirtied by cfg and prog for the next machines.
func holdMachines(cfg Config, prog *trace.Program, n, cycles int) []*Machine {
	ms := make([]*Machine, n)
	for i := range ms {
		ms[i] = NewMachine(cfg, trace.NewWalker(prog), prog)
		for c := 0; c < cycles; c++ {
			ms[i].Step()
		}
	}
	return ms
}

// TestRecycledMachineMatchesFresh is the recycle's identity guarantee:
// a machine built on arrays that another config and trace dirtied and
// released behaves exactly like one built on fresh arrays. It compares
// the determinism digest at full detail (baseline and UCP), sampled
// with a checkpoint capture and a restore, and on two time-parallel
// segments run by two concurrent workers, and the bytes of a warm
// capture. The recycled phase must also allocate far less, or the test
// would not be exercising reuse at all.
func TestRecycledMachineMatchesFresh(t *testing.T) {
	srv := recycleProgram(t, "srv203")
	cry := recycleProgram(t, "crypto01")
	n := runtime.GOMAXPROCS(0)
	noGC(t)

	// The dirtying config shares the Table II geometry but not the
	// tested configs' UCP parameters, and runs another trace.
	dirtyUCP := core.DefaultConfig()
	dirtyUCP.StopThreshold = 37
	dirtyUCP.WalkWidth = 4
	dirty := WithUCP(dirtyUCP)

	full := func(cfg Config) Config {
		cfg.WarmupInsts, cfg.MeasureInsts = 20_000, 30_000
		return cfg
	}
	sampled := full(WithUCP(core.DefaultConfig()))
	sampled.WarmupInsts, sampled.MeasureInsts = 50_000, 50_000
	sampled.Sampling = SamplingConfig{Enabled: true, PeriodInsts: 25_000, DetailedInsts: 2_000,
		WarmInsts: 4_000, FFWarmInsts: 8_000, CacheWarmInsts: 4_000, BPWarmInsts: 8_000}
	segCfg := full(WithUCP(core.DefaultConfig()))
	segWarm := BoundaryWarm{DetailedInsts: 2_000, FFInsts: 10_000}

	run := func(cfg Config, wc *WarmCheckpoints) string {
		src := trace.NewLimit(trace.NewWalker(srv), 200_000)
		r, err := RunHooked(cfg, src, srv, "srv203", wc, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r.DeterminismDigest()
	}
	type step struct {
		name string
		run  func(wc *WarmCheckpoints) string
	}
	steps := []step{
		{"full baseline", func(*WarmCheckpoints) string { return run(full(Baseline()), nil) }},
		{"full UCP", func(*WarmCheckpoints) string { return run(full(WithUCP(core.DefaultConfig())), nil) }},
		{"sampled capture", func(wc *WarmCheckpoints) string { return run(sampled, wc) }},
		{"sampled restore", func(wc *WarmCheckpoints) string { return run(sampled, wc) }},
		{"segments", func(*WarmCheckpoints) string {
			out := make([]string, 2)
			var wg sync.WaitGroup
			for i := range out {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					spec := SegmentSpec{Index: i, Start: 30_000 + 15_000*uint64(i), End: 45_000 + 15_000*uint64(i)}
					r, err := RunSegment(segCfg, trace.NewWalker(srv), srv, spec, segWarm, nil)
					if err != nil {
						t.Error(err)
						return
					}
					out[i] = fmt.Sprintf("%+v\n", r) + r.StreamLens.Render() + r.RefillLat.Render()
				}(i)
			}
			wg.Wait()
			return out[0] + out[1]
		}},
		{"warm capture", func(*WarmCheckpoints) string {
			m := NewMachine(WithUCP(core.DefaultConfig()), trace.NewWalker(srv), srv)
			defer m.release()
			if err := m.fastForward(60_000, DefaultBoundaryWarm()); err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("%x", sha256.Sum256(m.captureWarm()))
		}},
	}

	// phase runs every step after prepare, returning each step's output
	// and the bytes it allocated.
	phase := func(prepare func()) (outs []string, alloc []uint64) {
		wc := &WarmCheckpoints{Store: ckpt.NewStore(""), TraceID: "srv203-recycle"}
		var a, b runtime.MemStats
		for _, s := range steps {
			runtime.GC()
			prepare()
			runtime.ReadMemStats(&a)
			outs = append(outs, s.run(wc))
			runtime.ReadMemStats(&b)
			alloc = append(alloc, b.TotalAlloc-a.TotalAlloc)
		}
		if wc.Store.Hits() != 1 || wc.Store.Published() != 1 {
			t.Fatalf("checkpoint store: %d hits, %d captures; want one capture and one restore", wc.Store.Hits(), wc.Store.Published())
		}
		return outs, alloc
	}
	// Fresh: held machines own every free array, and are dropped
	// without a release.
	fresh, freshAlloc := phase(func() { holdMachines(dirty, cry, n, 0) })
	// Recycled: machines of the dirtying config run crypto01, then
	// release their arrays for the step to build on.
	recycled, recycledAlloc := phase(func() {
		for _, m := range holdMachines(dirty, cry, n, 20_000) {
			m.release()
		}
	})
	for i, s := range steps {
		if recycled[i] != fresh[i] {
			t.Errorf("%s: recycled machine differs from fresh:\n%s\n---\n%s", s.name, recycled[i], fresh[i])
		}
		if recycledAlloc[i]+4<<20 > freshAlloc[i] {
			t.Errorf("%s: allocated %d bytes on recycled arrays and %d on fresh ones; want at least 4 MiB less", s.name, recycledAlloc[i], freshAlloc[i])
		}
	}
}

// rebuildAllocLimit bounds what building a Table II UCP machine
// allocates once a released one has left its arrays: the recycled
// tables are about 6.2 MB, what remains (queues, the ROB, histograms,
// small prefetcher tables) is a few tens of KiB.
const rebuildAllocLimit = 64 << 10

// TestRebuiltMachineAllocatesLittle pins the recycle's memory effect:
// after a release, building the next Table II UCP machine allocates
// under rebuildAllocLimit, where a fresh one allocates about 6.2 MB.
func TestRebuiltMachineAllocatesLittle(t *testing.T) {
	prog := recycleProgram(t, "srv203")
	cfg := WithUCP(core.DefaultConfig())
	noGC(t)
	NewMachine(cfg, trace.NewWalker(prog), prog).release()
	var a, b runtime.MemStats
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		src := trace.NewWalker(prog)
		runtime.ReadMemStats(&a)
		m := NewMachine(cfg, src, prog)
		runtime.ReadMemStats(&b)
		m.release()
		least = min(least, b.TotalAlloc-a.TotalAlloc)
	}
	t.Logf("rebuilding a Table II UCP machine allocates %d bytes", least)
	if least >= rebuildAllocLimit {
		t.Fatalf("rebuilding a released Table II UCP machine allocates %d bytes, want under %d", least, rebuildAllocLimit)
	}
}

// TestReleasedMachinePanics checks that release leaves no array behind
// for a stale machine to read: stepping a released machine panics.
func TestReleasedMachinePanics(t *testing.T) {
	prog := recycleProgram(t, "srv203")
	m := NewMachine(WithUCP(core.DefaultConfig()), trace.NewWalker(prog), prog)
	for c := 0; c < 1000; c++ {
		m.Step()
	}
	m.release()
	defer func() {
		if recover() == nil {
			t.Fatal("a released machine kept stepping")
		}
	}()
	for c := 0; c < 1000; c++ {
		m.Step()
	}
}
