package explore

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"drftest/internal/cache"
	"drftest/internal/core"
	"drftest/internal/coverage"
	"drftest/internal/sim"
	"drftest/internal/viper"
)

// exploreSysCfg is the reference exploration system: the smallest
// interesting GPU — 2 CUs over one L2 slice with tiny caches, no
// response jitter (the chooser, not latency randomness, is the source
// of reordering in exhaustive mode).
func exploreSysCfg() viper.Config {
	c := viper.SmallCacheConfig()
	c.NumCUs = 2
	c.NumL2Slices = 1
	c.RespJitter = 0
	return c
}

// exploreTestCfg is the reference exploration workload: 2 wavefronts,
// 2 variables (1 sync + 1 data), short episodes — the acceptance
// criteria's "clean 2-WF/2-variable config".
func exploreTestCfg(seed uint64) core.Config {
	return core.Config{
		Seed:              seed,
		NumWavefronts:     2,
		ThreadsPerWF:      1,
		EpisodesPerThread: 1,
		ActionsPerEpisode: 6,
		NumSyncVars:       1,
		NumDataVars:       1,
		AddressRangeBytes: 64,
		StoreFraction:     0.6,
		AtomicDelta:       1,
		DeadlockThreshold: 20_000,
		CheckPeriod:       5_000,
		LogCapacity:       256,
	}
}

// exploreSpreadCfg spreads more data variables across distinct cache
// lines so disjoint-line traffic actually exists — the workload shape
// where the independence relation has something to commute.
func exploreSpreadCfg(seed uint64) core.Config {
	c := exploreTestCfg(seed)
	c.ThreadsPerWF = 2
	c.ActionsPerEpisode = 8
	c.NumSyncVars = 2
	c.NumDataVars = 8
	c.AddressRangeBytes = 64 * 64
	return c
}

// exploreBigSetsSys widens the caches so distinct lines rarely share a
// set: the geometry where independence-based pruning pays off (the tiny
// 2-set L1 of SmallCacheConfig makes almost every line pair conflict).
func exploreBigSetsSys() viper.Config {
	c := exploreSysCfg()
	c.L1 = cache.Config{SizeBytes: 4096, LineSize: 64, Assoc: 2}
	c.L2 = cache.Config{SizeBytes: 16384, LineSize: 64, Assoc: 2}
	return c
}

// exploreWideCfg is the prune-ratio reference workload: still 2
// wavefronts, but enough disjoint-line data variables that most
// co-enabled event pairs commute.
func exploreWideCfg(seed uint64) core.Config {
	c := exploreTestCfg(seed)
	c.ThreadsPerWF = 2
	c.ActionsPerEpisode = 10
	c.NumSyncVars = 1
	c.NumDataVars = 16
	c.AddressRangeBytes = 16 * 64 * 8
	c.StoreFraction = 0.7
	return c
}

// exploreRichCfg is a denser 2-wavefront workload (2 lanes, 8 episodes)
// whose longer history can leave stale lines in an L1 — the shape the
// StaleAcquire bug needs.
func exploreRichCfg(seed uint64) core.Config {
	c := exploreTestCfg(seed)
	c.ThreadsPerWF = 2
	c.EpisodesPerThread = 8
	c.ActionsPerEpisode = 30
	c.NumSyncVars = 2
	c.NumDataVars = 12
	c.AddressRangeBytes = 2048
	return c
}

// defaultRunFails runs the config once under the default FIFO schedule
// (stream checking on, like the explorer) and reports whether anything
// was flagged.
func defaultRunFails(sys viper.Config, tc core.Config) bool {
	k := sim.NewKernel()
	col := coverage.NewCollector(viper.NewTCPSpec(), viper.NewTCCSpec())
	s := viper.NewSystem(k, sys, col)
	tc.StreamCheck = true
	tester := core.New(k, s, tc)
	rep := tester.Run()
	return len(rep.Failures) > 0 || len(rep.StreamViolations) > 0
}

// TestExploreCleanReference is the headline acceptance check: on the
// clean 2-WF/2-variable reference config the explorer enumerates the
// full bounded schedule space and reports no violation in any schedule
// up to the depth bound.
func TestExploreCleanReference(t *testing.T) {
	res, err := Run(Config{
		SysCfg:  exploreSysCfg(),
		TestCfg: exploreTestCfg(1),
		Depth:   6,
		Budget:  100_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("clean reference config produced a violation: %+v", res.Violation)
	}
	if !res.Complete() {
		t.Fatalf("bounded space not fully enumerated: %+v", res)
	}
	// Every branching point on this config is binary and the workload
	// has more than Depth of them, so the bounded space is exactly
	// 2^Depth schedules. Pinning the count keeps enumeration
	// deterministic across refactors.
	if want := uint64(1) << 6; res.Schedules != want {
		t.Fatalf("expected %d schedules at depth 6, got %d", want, res.Schedules)
	}
	if res.ChoicePoints == 0 {
		t.Fatal("no branching choice points on a 2-WF config")
	}
	t.Logf("clean: %d schedules, %d choice points, depth-limited=%v",
		res.Schedules, res.ChoicePoints, res.DepthLimited)
}

// TestExplorePruneRatio pins the partial-order reduction's value: on
// the reference wide config, DPOR-style pruning must explore at most
// half the schedules naive enumeration does, and both must agree the
// protocol is clean. This is the invariant the CI benchmark gate
// enforces (scripts/bench.sh).
func TestExplorePruneRatio(t *testing.T) {
	base := Config{
		SysCfg:  exploreBigSetsSys(),
		TestCfg: exploreWideCfg(1),
		Depth:   8,
		Budget:  100_000,
	}

	naiveCfg := base
	res, err := Run(naiveCfg)
	if err != nil {
		t.Fatal(err)
	}
	pruneCfg := base
	pruneCfg.Prune = true
	pres, err := Run(pruneCfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*Result{"naive": res, "pruned": pres} {
		if r.Violation != nil {
			t.Fatalf("%s exploration flagged a clean protocol: %+v", name, r.Violation)
		}
		if !r.Complete() {
			t.Fatalf("%s exploration incomplete: %+v", name, r)
		}
	}
	explored := pres.Schedules + pres.PrunedPaths
	t.Logf("naive %d schedules; pruned %d (%d completed + %d abandoned), ratio %.3f",
		res.Schedules, explored, pres.Schedules, pres.PrunedPaths,
		float64(explored)/float64(res.Schedules))
	if explored*2 > res.Schedules {
		t.Fatalf("pruning too weak: explored %d of %d naive schedules (> 0.5x)",
			explored, res.Schedules)
	}
}

// TestExploreBudget pins budget accounting: enumeration stops exactly
// at the budget, counting completed and abandoned schedules alike.
func TestExploreBudget(t *testing.T) {
	res, err := Run(Config{
		SysCfg:  exploreSysCfg(),
		TestCfg: exploreTestCfg(1),
		Depth:   10,
		Budget:  10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.BudgetExhausted {
		t.Fatalf("expected budget exhaustion: %+v", res)
	}
	if got := res.Schedules + res.PrunedPaths; got != 10 {
		t.Fatalf("expected exactly 10 explored paths at budget 10, got %d", got)
	}
	if res.Complete() {
		t.Fatal("budget-exhausted exploration must not report completeness")
	}
}

// TestExploreDeterministic pins that exploration itself is
// reproducible: two explorations of the same config produce identical
// results.
func TestExploreDeterministic(t *testing.T) {
	cfg := Config{
		SysCfg:  exploreBigSetsSys(),
		TestCfg: exploreWideCfg(3),
		Depth:   8,
		Budget:  100_000,
		Prune:   true,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("explorations diverged:\n  first:  %+v\n  second: %+v", a, b)
	}
}

// TestRunErrorJoinsCheckerWorker pins that an exploration failing with
// an error still quiesces the stream pipeline's worker goroutine: here
// the violation artifact cannot be written because ArtifactDir names a
// regular file. GOMAXPROCS is raised to 2 so the checker runs threaded.
func TestRunErrorJoinsCheckerWorker(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	sys := exploreSysCfg()
	sys.Bugs = viper.BugSet{NonAtomicRMW: true}
	base := runtime.NumGoroutine()
	_, err := Run(Config{
		SysCfg:      sys,
		TestCfg:     exploreTestCfg(1),
		Depth:       10,
		Budget:      5_000,
		Prune:       true,
		ArtifactDir: notDir,
	})
	if err == nil {
		t.Fatal("expected an error writing the artifact into a regular file")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d after the failed exploration, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestExploreBytesPerRun is the tier-1 twin of CI's ExploreDPOR B/op
// ceiling: one pruned exploration of the reference config must
// allocate at most 4.5 MB. Explorer cuts carry no trace ring and
// recycle their cache-array slabs; copying a 4096-entry ring into
// every cut again allocates about twice the ceiling. Allocation volume
// is deterministic for a fixed config.
func TestExploreBytesPerRun(t *testing.T) {
	const ceiling = 4.5e6
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(benchConfig(true))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil || !res.Complete() {
		t.Fatalf("reference exploration not clean and complete: %+v", res)
	}
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d schedules, %d bytes allocated", res.Schedules, bytes)
	if bytes > ceiling {
		t.Fatalf("one pruned reference exploration allocated %d bytes, above the %.1f MB ceiling", bytes, ceiling/1e6)
	}
}

// TestViolationRerunMustReproduce pins the re-run behind violation
// artifacts: re-running the violating script rebuilds the explored
// run's artifact byte for byte, and a re-run that diverges from the
// explored run — a script the kernel cannot follow, or a report the
// re-run does not reproduce — is an error, not an artifact.
func TestViolationRerunMustReproduce(t *testing.T) {
	sys := exploreSysCfg()
	sys.Bugs = viper.BugSet{NonAtomicRMW: true}
	cfg := Config{SysCfg: sys, TestCfg: exploreTestCfg(1), Depth: 10, Prune: true}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Artifact == nil {
		t.Fatalf("expected a violation artifact: %+v", res)
	}
	want, err := res.Artifact.Encode()
	if err != nil {
		t.Fatal(err)
	}
	script := res.Violation.Schedule

	// Rebuild the explored run's end state by following its script.
	r, err := newRun(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.build.K.SetChooser(sim.NewScriptChooser(script))
	rep := r.tester.Run()

	art, err := r.artifact(&cfg, script, rep)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := art.Encode(); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("re-run artifact differs from the exploration's (encode error %v)", err)
	}
	bogus := make([]uint64, len(script))
	for i := range bogus {
		bogus[i] = math.MaxUint64
	}
	if _, err := r.artifact(&cfg, bogus, rep); err == nil {
		t.Fatal("a script the re-run cannot follow produced an artifact")
	}
	diverged := *rep
	diverged.OpsCompleted++
	if _, err := r.artifact(&cfg, script, &diverged); err == nil {
		t.Fatal("a re-run that does not reproduce the explored report produced an artifact")
	}
}
