package main

import (
	"fmt"
	"runtime"
	"time"

	"drftest/internal/cache"
	"drftest/internal/core"
	"drftest/internal/explore"
	"drftest/internal/harness"
	"drftest/internal/viper"
)

const (
	exploreSeeds = 500
	// prepare times the set-up in exploreSetups batches of
	// exploreSetupBatch builds.
	exploreSetups     = 21
	exploreSetupBatch = 10
	exploreDepth      = 8
	// exploreBudget is far above what any seed of this configuration
	// needs; reaching it counts as a failed operation.
	exploreBudget = 1_000_000
)

// exploreWorkload explores many seeds exhaustively up to a depth bound
// with sleep-set pruning, on the 2-wavefront "wide" configuration over
// big-set caches (the explore package's prune-ratio reference). One
// operation is one explored seed: the time to reach "no violation in
// any schedule up to depth D".
type exploreWorkload struct {
	cfgs []explore.Config

	choicePoints uint64 // every explored seed, partial passes included
	schedules    uint64
}

// exploreSys is the reference exploration system with sets wide enough
// that distinct lines rarely conflict, so independence pruning pays.
func exploreSys() viper.Config {
	c := viper.SmallCacheConfig()
	c.NumCUs = 2
	c.NumL2Slices = 1
	c.RespJitter = 0
	c.L1 = cache.Config{SizeBytes: 4096, LineSize: 64, Assoc: 2}
	c.L2 = cache.Config{SizeBytes: 16384, LineSize: 64, Assoc: 2}
	return c
}

// exploreTest is the "wide" 2-wavefront workload: enough disjoint-line
// data variables that most co-enabled event pairs commute.
func exploreTest(seed uint64) core.Config {
	return core.Config{
		Seed:              seed,
		NumWavefronts:     2,
		ThreadsPerWF:      2,
		EpisodesPerThread: 1,
		ActionsPerEpisode: 10,
		NumSyncVars:       1,
		NumDataVars:       16,
		AddressRangeBytes: 16 * 64 * 8,
		StoreFraction:     0.7,
		AtomicDelta:       1,
		DeadlockThreshold: 20_000,
		CheckPeriod:       5_000,
		LogCapacity:       256,
	}
}

func newExploreWorkload(seed uint64) *exploreWorkload {
	w := &exploreWorkload{}
	base := subSeed(seed, "explore")
	for i := uint64(0); i < exploreSeeds; i++ {
		w.cfgs = append(w.cfgs, explore.Config{
			SysCfg:  exploreSys(),
			TestCfg: exploreTest(base + i),
			Depth:   exploreDepth,
			Budget:  exploreBudget,
			Prune:   true,
		})
	}
	return w
}

// prepare times the set-up explore.Run pays before its first choice
// point: it builds seeds' systems through the same calls (BuildGPU,
// EnableCheckpointing, EnableTrace, core.New) and discards them.
// explore.Run builds internally, so the measured operations cannot split
// it off; timing it here keeps these extra builds out of them. One build
// takes tens of microseconds, so a set-up sample is the mean of a batch
// of builds started from a collected heap.
func (w *exploreWorkload) prepare(m *meter) {
	for b := 0; b < exploreSetups; b++ {
		runtime.GC()
		t0 := time.Now()
		for _, cfg := range w.cfgs[b*exploreSetupBatch : (b+1)*exploreSetupBatch] {
			sp := m.tr.begin("harness.BuildGPU", -1, 0)
			b := harness.BuildGPU(cfg.SysCfg)
			m.tr.end(sp)
			b.Sys.EnableCheckpointing()
			harness.EnableTrace(b.K, 0)
			tc := cfg.TestCfg
			tc.StreamCheck = true
			sp = m.tr.begin("core.New", -1, 0)
			core.New(b.K, b.Sys, tc)
			m.tr.end(sp)
		}
		m.addSetup(time.Since(t0) / exploreSetupBatch)
	}
}

func (w *exploreWorkload) pass(m *meter) counts {
	var c struct{ schedules, prunedPaths, prunedBranches, choicePoints uint64 }
	for _, cfg := range w.cfgs {
		if m.done() {
			return nil
		}
		m.do("explore.seed", func(o *op) error {
			sp := o.begin("explore.Run")
			res, err := explore.Run(cfg)
			o.end(sp)
			if err != nil {
				return err
			}
			c.schedules += res.Schedules
			c.prunedPaths += res.PrunedPaths
			c.prunedBranches += res.PrunedBranches
			c.choicePoints += res.ChoicePoints
			w.schedules += res.Schedules
			w.choicePoints += res.ChoicePoints
			switch {
			case res.Violation != nil:
				return fmt.Errorf("seed %d: violation %+v", cfg.TestCfg.Seed, res.Violation.Failure)
			case res.BudgetExhausted:
				return fmt.Errorf("seed %d: budget of %d schedules exhausted", cfg.TestCfg.Seed, cfg.Budget)
			}
			return nil
		})
	}
	return counts{
		{"schedules", c.schedules}, {"pruned_paths", c.prunedPaths},
		{"pruned_branches", c.prunedBranches}, {"choice_points", c.choicePoints},
	}
}

func (w *exploreWorkload) named(m *meter) []row {
	n := len(m.lat)
	return []row{
		{"explore_ms_p50", percentile(m.lat, 50), "ms", n},
		{"explore_ms_p75", percentile(m.lat, 75), "ms", n},
	}
}

func (w *exploreWorkload) layers(m *meter) map[string]float64 {
	d := m.tr.durations()
	runMs := d["explore.Run"]
	var total float64
	for _, x := range runMs {
		total += x
	}
	first := m.first
	return map[string]float64{
		"harness.build_ms":               median(d["harness.BuildGPU"]),
		"core.new_ms":                    median(d["core.New"]),
		"explore.run_ms":                 median(runMs),
		"explore.us_per_choice_point":    ratio(total*1e3, float64(w.choicePoints)),
		"explore.schedules_per_s":        ratio(float64(w.schedules), total/1e3),
		"runtime.bytes_per_choice_point": ratio(m.bytes(), float64(w.choicePoints)),
		"runtime.gc_cpu_frac":            m.gcFrac(),
		"explore.schedules":              float64(first.get("schedules")),
		"explore.pruned_paths":           float64(first.get("pruned_paths")),
		"explore.pruned_branches":        float64(first.get("pruned_branches")),
		"explore.choice_points":          float64(first.get("choice_points")),
		"explore.useful_ratio": ratio(float64(first.get("schedules")),
			float64(first.get("schedules")+first.get("pruned_paths"))),
	}
}

func (w *exploreWorkload) probeConfig() probeConfig {
	tc := w.cfgs[0].TestCfg
	tc.StreamCheck = true
	return probeConfig{sys: w.cfgs[0].SysCfg, test: tc}
}
