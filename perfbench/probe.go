package main

import (
	"fmt"
	"runtime"
	"time"

	"drftest/internal/core"
	"drftest/internal/coverage"
	"drftest/internal/harness"
	"drftest/internal/sim"
	"drftest/internal/trace"
	"drftest/internal/viper"
)

// probeConfig is the run whose mid-run cut the probe snapshots.
type probeConfig struct {
	sys  viper.Config
	test core.Config
}

// Each layer's Snapshot and Restore is timed up to probeReps times, or
// for at least 5 times within probeLayerTime; the median is reported.
const (
	probeReps      = 101
	probeLayerTime = 250 * time.Millisecond
)

// cutLayer is one layer's public Snapshot/Restore pair, bound to a
// snapshot taken once at the cut.
type cutLayer struct {
	name     string
	snapshot func() any
	restore  func(any)
}

// cutProbe runs cfg to half its simulated length with checkpointing on
// (as the explorer and checkpointed bisection do), then times each
// layer's Snapshot and Restore at that cut and measures the bytes one
// Snapshot allocates. It returns "<layer>.snapshot_us", ".restore_us"
// and ".snapshot_bytes" for sim, viper, core, coverage and trace.
func cutProbe(cfg probeConfig) (map[string]float64, error) {
	full, err := probeRun(cfg, 0, nil)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	_, err = probeRun(cfg, sim.Tick(full/2), func(b *harness.GPUBuild, t *core.Tester) {
		ring := b.K.Tracer()
		layers := []cutLayer{
			{"sim", func() any { return b.K.Snapshot() }, func(s any) { b.K.Restore(s.(*sim.KernelSnapshot)) }},
			{"viper", func() any { return b.Sys.Snapshot() }, func(s any) { b.Sys.Restore(s.(*viper.SystemSnapshot)) }},
			{"core", func() any { return t.Snapshot() }, func(s any) { t.Restore(s.(*core.TesterSnapshot)) }},
			{"coverage", func() any { return b.Col.Snapshot() }, func(s any) { b.Col.Restore(s.(*coverage.CollectorSnapshot)) }},
			{"trace", func() any { return ring.Snapshot() }, func(s any) { ring.Restore(s.(*trace.RingSnapshot)) }},
		}
		for _, l := range layers {
			snap := l.snapshot()
			out[l.name+".snapshot_bytes"] = allocatedBy(func() { l.snapshot() })
			var snapUs, restoreUs []float64
			start := time.Now()
			for i := 0; i < probeReps && (i < 5 || time.Since(start) < probeLayerTime); i++ {
				t0 := time.Now()
				l.snapshot()
				snapUs = append(snapUs, float64(time.Since(t0))/1e3)
				t0 = time.Now()
				l.restore(snap)
				restoreUs = append(restoreUs, float64(time.Since(t0))/1e3)
			}
			out[l.name+".snapshot_us"] = median(snapUs)
			out[l.name+".restore_us"] = median(restoreUs)
		}
	})
	return out, err
}

// allocatedBy returns the heap bytes fn allocates. ReadMemStats flushes
// the per-P allocation caches, so unlike runtime/metrics it counts small
// allocations exactly.
func allocatedBy(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc - before.TotalAlloc)
}

// probeRun builds cfg's system with checkpointing and a trace ring,
// runs it to tick cut (calling at there) and then to completion, and
// returns the run's simulated length. cut 0 runs straight through.
func probeRun(cfg probeConfig, cut sim.Tick, at func(*harness.GPUBuild, *core.Tester)) (uint64, error) {
	b := harness.BuildGPU(cfg.sys)
	b.Sys.EnableCheckpointing()
	harness.EnableTrace(b.K, 0)
	t := core.New(b.K, b.Sys, cfg.test)
	t.Start()
	if cut > 0 {
		b.K.Run(cut)
		at(b, t)
	}
	b.K.RunUntilIdle()
	t.Finish()
	rep := t.Report()
	if !rep.Passed() {
		return 0, fmt.Errorf("cut probe run: %v", rep.Failures[0])
	}
	return rep.SimTicks, nil
}
