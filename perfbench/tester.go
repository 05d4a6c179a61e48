package main

import (
	"fmt"
	"time"

	"drftest/internal/core"
	"drftest/internal/harness"
	"drftest/internal/stats"
)

// testerWorkload runs long DRF tester runs on fresh systems: the six
// Table III configurations with 100 actions × 10 episodes, over small,
// large and mixed caches at full scale (100k data variables), with the
// online axiomatic checker giving each run's verdict. One operation is
// one run; its latency is Tester.Run alone, and building the system and
// tester is its set-up.
type testerWorkload struct {
	cfgs []harness.GPUTestConfig

	total      testerCounts // every run, partial passes included
	runWall    time.Duration
	violations int
}

// testerCounts are the simulated outcomes the tester workload sums.
type testerCounts struct {
	memops, ticks, events, l1, l2, fills, stalls, mem, peakQ uint64
	load                                                     *stats.Histogram
}

func newTesterCounts() testerCounts { return testerCounts{load: stats.NewHistogram("load")} }

func (c *testerCounts) add(rep *core.Report, b *harness.GPUBuild) {
	c.memops += rep.OpsCompleted
	c.ticks += rep.SimTicks
	c.events += rep.EventsExecuted
	c.l1 += b.Col.Matrix("GPU-L1").Total()
	c.l2 += b.Col.Matrix("GPU-L2").Total()
	l2 := b.Sys.L2Stats()
	c.fills += l2["fills"]
	c.stalls += l2["stalls"]
	reads, writes, atomics, peak := b.Sys.Mem.Stats()
	c.mem += reads + writes + atomics
	c.peakQ = max(c.peakQ, uint64(peak))
	c.load.Merge(b.Sys.Latencies().Load)
}

func newTesterWorkload(seed uint64) *testerWorkload {
	w := &testerWorkload{total: newTesterCounts()}
	// Order small, large, mixed, small, ...: a pass the budget cuts short
	// then still holds every cache sizing in nearly equal measure.
	for _, syncVars := range []int{10, 100} {
		for _, c := range harness.GPUTesterConfigs(subSeed(seed, "tester"), 1) {
			if c.TestCfg.ActionsPerEpisode == 100 && c.TestCfg.EpisodesPerThread == 10 && c.TestCfg.NumSyncVars == syncVars {
				c.TestCfg.StreamCheck = true
				w.cfgs = append(w.cfgs, c)
			}
		}
	}
	return w
}

func (w *testerWorkload) pass(m *meter) counts {
	c := newTesterCounts()
	for _, cfg := range w.cfgs {
		if m.done() {
			return nil
		}
		m.do("tester.run", func(o *op) error {
			t0 := time.Now()
			sp := o.begin("harness.BuildGPU")
			b := harness.BuildGPU(cfg.SysCfg)
			o.end(sp)
			sp = o.begin("core.New")
			t := core.New(b.K, b.Sys, cfg.TestCfg)
			o.end(sp)
			t1 := time.Now()
			m.addSetup(t1.Sub(t0))
			sp = o.begin("core.Tester.Run")
			rep := t.Run()
			o.end(sp)
			o.lat = time.Since(t1)

			w.runWall += o.lat
			c.add(rep, b)
			w.total.add(rep, b)
			w.violations += len(rep.StreamViolations)
			switch {
			case !rep.Passed():
				return fmt.Errorf("%s: %v", cfg.Name, rep.Failures[0])
			case len(rep.StreamViolations) > 0:
				return fmt.Errorf("%s: stream violation: %v", cfg.Name, rep.StreamViolations[0])
			case rep.OpsCompleted != cfg.TestCfg.TotalActions():
				return fmt.Errorf("%s: %d memops completed, want %d", cfg.Name, rep.OpsCompleted, cfg.TestCfg.TotalActions())
			}
			return nil
		})
	}
	return counts{
		{"memops", c.memops}, {"sim_ticks", c.ticks}, {"events", c.events},
		{"l1_transitions", c.l1}, {"l2_transitions", c.l2},
		{"l2_fills", c.fills}, {"l2_stalls", c.stalls},
		{"memctrl_accesses", c.mem}, {"memctrl_peak_queue", c.peakQ},
		{"load_latency_p50", c.load.Percentile(0.5)}, {"load_latency_p99", c.load.Percentile(0.99)},
	}
}

func (w *testerWorkload) named(m *meter) []row {
	return []row{
		{"memops_per_s", ratio(float64(w.total.memops), w.runWall.Seconds()), "1/s", len(m.lat)},
		{"sim_ticks", float64(m.first.get("sim_ticks")), "ticks", len(w.cfgs)},
	}
}

func (w *testerWorkload) layers(m *meter) map[string]float64 {
	d := m.tr.durations()
	t := &w.total
	memops := float64(t.memops)
	return map[string]float64{
		"harness.build_ms":                  median(d["harness.BuildGPU"]),
		"core.new_ms":                       median(d["core.New"]),
		"core.run_ms":                       median(d["core.Tester.Run"]),
		"core.memops_per_s":                 ratio(memops, w.runWall.Seconds()),
		"sim.ticks":                         float64(m.first.get("sim_ticks")),
		"sim.ns_per_event":                  ratio(float64(w.runWall.Nanoseconds()), float64(t.events)),
		"sim.events_per_memop":              ratio(float64(t.events), memops),
		"protocol.l1_transitions_per_memop": ratio(float64(t.l1), memops),
		"protocol.l2_transitions_per_memop": ratio(float64(t.l2), memops),
		"runtime.allocs_per_memop":          ratio(m.allocs(), memops),
		"runtime.bytes_per_memop":           ratio(m.bytes(), memops),
		"runtime.gc_cpu_frac":               m.gcFrac(),
		"viper.l2_fills_per_memop":          ratio(float64(t.fills), memops),
		"viper.l2_stalls_per_memop":         ratio(float64(t.stalls), memops),
		"viper.load_latency_ticks_p50":      float64(t.load.Percentile(0.5)),
		"viper.load_latency_ticks_p99":      float64(t.load.Percentile(0.99)),
		"memctrl.accesses_per_memop":        ratio(float64(t.mem), memops),
		"memctrl.peak_queue":                float64(t.peakQ),
		"checker.violations":                float64(w.violations),
	}
}

func (w *testerWorkload) probeConfig() probeConfig {
	return probeConfig{sys: w.cfgs[0].SysCfg, test: w.cfgs[0].TestCfg}
}
