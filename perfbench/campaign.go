package main

import (
	"fmt"
	"time"

	"drftest/internal/core"
	"drftest/internal/harness"
	"drftest/internal/viper"
)

// One campaign: 20 batches of 16 seeds, long enough for coverage to
// reach its plateau (about 100 seeds on small caches).
const (
	campaignSeeds = 320
	campaignBatch = 16
)

// campaignWorkload runs a coverage campaign of short seeds over small
// caches and a paper-scale address space, through the same Plan /
// RunSeed / Apply sequence the campaign daemon drives, with one worker.
// One operation is one RunSeed; the campaign's first construction is
// its set-up. Every seed rearms the reused run context (Tester.Reset
// rebuilds the 100k-variable address space), and coverage merges after
// every batch.
//
// The campaign runs in uniform mode. Directed and swarm modes deal each
// batch a corner drawn from the campaign seed, and corners differ up to
// fourfold in per-seed cost, so the corner mix alone moved seed latency
// by ±20% between workload seeds.
type campaignWorkload struct {
	cfg harness.CampaignConfig

	seeds      int
	rearm, run []float64 // per-seed ms
	saturation []float64 // per-campaign s
}

func newCampaignWorkload(seed uint64) *campaignWorkload {
	tc := core.DefaultConfig()
	tc.NumWavefronts = 8
	tc.EpisodesPerThread = 1
	tc.ActionsPerEpisode = 8
	tc.NumSyncVars = 16
	tc.NumDataVars = 100_000
	return &campaignWorkload{cfg: harness.CampaignConfig{
		SysCfg:    viper.SmallCacheConfig(),
		TestCfg:   tc,
		BaseSeed:  subSeed(seed, "campaign"),
		Workers:   1,
		BatchSize: campaignBatch,
		MaxSeeds:  campaignSeeds,
		Mode:      harness.CampaignUniform,
	}}
}

func (w *campaignWorkload) pass(m *meter) counts {
	start := time.Now()
	st := harness.NewCampaignState(w.cfg)
	rc := harness.NewRunContext(w.cfg)
	var satAt time.Duration
	for {
		plan, ok := st.Plan()
		if !ok {
			break
		}
		for i := 0; i < plan.Count; i++ {
			if m.done() {
				return nil
			}
			seed := plan.First + uint64(i)
			m.do("campaign.seed", func(o *op) error {
				before := rc.Delta()
				t0 := time.Now()
				sp := o.begin("harness.RunContext.RunSeed")
				rc.RunSeed(seed, plan.Corner)
				o.end(sp)
				o.lat = time.Since(t0)
				after := rc.Delta()
				run := after.Wall - before.Wall
				if plan.Index == 0 && i == 0 {
					// The first seed builds the run context: everything
					// before its simulation starts is the set-up.
					m.addSetup(t0.Sub(start) + o.lat - run)
				} else {
					w.rearm = append(w.rearm, float64(o.lat-run)/1e6)
				}
				w.run = append(w.run, float64(run)/1e6)
				w.seeds++
				if len(after.Failures) > len(before.Failures) {
					return fmt.Errorf("seed %d: %v", seed, after.Failures[len(after.Failures)-1].Failures[0])
				}
				return nil
			})
		}
		d := rc.Delta()
		// The merge belongs to no single seed: request id 0.
		sp := m.tr.begin("harness.CampaignState.Apply", -1, 0)
		st.Apply([]harness.BatchDelta{d})
		m.tr.end(sp)
		rc.ClearDelta()
		if p := st.Progress(); p.NewCellsByBatch[len(p.NewCellsByBatch)-1] > 0 {
			satAt = time.Since(start)
		}
	}
	res := st.Result()
	w.saturation = append(w.saturation, satAt.Seconds())
	if res.SeedsRun != campaignSeeds {
		m.fail(fmt.Errorf("campaign ran %d seeds, want %d", res.SeedsRun, campaignSeeds))
	}
	return counts{
		{"seeds", uint64(res.SeedsRun)}, {"memops", res.TotalOps}, {"events", res.TotalEvents},
		{"cells_at_saturation", uint64(res.CellsAtSaturation)},
		{"seeds_to_saturation", uint64(res.SeedsToSaturation)},
		{"failing_seeds", uint64(len(res.Failures))},
	}
}

func (w *campaignWorkload) named(m *meter) []row {
	n := len(m.lat)
	return []row{
		{"seeds_per_s", float64(n) / m.wall.Seconds(), "1/s", n},
		{"seed_ms_p50", percentile(m.lat, 50), "ms", n},
		{"seed_ms_p95", percentile(m.lat, 95), "ms", n},
		{"saturation_s", median(w.saturation), "s", len(w.saturation)},
	}
}

func (w *campaignWorkload) layers(m *meter) map[string]float64 {
	seeds := float64(w.seeds)
	return map[string]float64{
		"harness.rearm_ms_p50":         percentile(w.rearm, 50),
		"core.run_ms":                  median(w.run),
		"core.run_ms_p95":              percentile(w.run, 95),
		"harness.apply_ms":             median(m.tr.durations()["harness.CampaignState.Apply"]),
		"coverage.cells_at_saturation": float64(m.first.get("cells_at_saturation")),
		"coverage.seeds_to_saturation": float64(m.first.get("seeds_to_saturation")),
		"coverage.saturation_s":        median(w.saturation),
		"runtime.allocs_per_seed":      ratio(m.allocs(), seeds),
		"runtime.bytes_per_seed":       ratio(m.bytes(), seeds),
		"runtime.gc_cpu_frac":          m.gcFrac(),
	}
}

func (w *campaignWorkload) probeConfig() probeConfig {
	tc := w.cfg.TestCfg
	tc.Seed = w.cfg.BaseSeed
	return probeConfig{sys: w.cfg.SysCfg, test: tc}
}
