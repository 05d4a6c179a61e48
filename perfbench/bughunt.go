package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"drftest/internal/core"
	"drftest/internal/harness"
	"drftest/internal/viper"
)

const (
	huntRounds = 80 // rounds per pass; a round hunts every bug once
	// huntSeedCap bounds the seeds one session may try before the bug
	// counts as missed.
	huntSeedCap = 16
)

var huntBugs = []struct {
	name string
	bugs viper.BugSet
}{
	{"lostwrite", viper.BugSet{LostWriteRace: true}},
	{"nonatomic", viper.BugSet{NonAtomicRMW: true}},
	{"dropack", viper.BugSet{DropWBAckEvery: 20}},
	{"staleacquire", viper.BugSet{StaleAcquire: true}},
}

// bughuntWorkload runs the debug loop after an injected bug: one
// session runs seeds with the trace ring on until the first failure,
// writes the replay artifact and loads it back, replays it, bisects it
// to the first failing tick and minimizes it to a verified, reproducing
// artifact. One operation is one round: a session for each of the four
// bugs. Session times cluster by bug (30 to 120 ms), so a percentile
// over single sessions would sit in the gap between clusters and jump;
// a round's time does not.
type bughuntWorkload struct {
	base    uint64
	tmpRoot string

	sessionMs     []float64
	seedsRun      int
	artifactBytes []float64
}

func newBughuntWorkload(seed uint64, tmpRoot string) *bughuntWorkload {
	return &bughuntWorkload{base: subSeed(seed, "bughunt"), tmpRoot: tmpRoot}
}

// huntConfig is the contention-heavy configuration the bug-hunt command
// uses: few variables, many wavefronts, store-heavy episodes.
func huntConfig(bug string, seed uint64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.NumWavefronts = 8
	cfg.EpisodesPerThread = 8
	cfg.ActionsPerEpisode = 30
	cfg.NumSyncVars = 4
	cfg.NumDataVars = 48
	cfg.StoreFraction = 0.6
	if bug == "dropack" {
		cfg.DeadlockThreshold = 20_000
		cfg.CheckPeriod = 5_000
	}
	return cfg
}

func (w *bughuntWorkload) pass(m *meter) counts {
	var seeds uint64
	for r := 0; r < huntRounds; r++ {
		if m.done() {
			return nil
		}
		m.do("bughunt.round", func(o *op) error {
			for bi, bug := range huntBugs {
				sys := viper.SmallCacheConfig()
				sys.Bugs = bug.bugs
				first := w.base + uint64(r*len(huntBugs)+bi)*huntSeedCap
				t0 := time.Now()
				sp := o.begin("bughunt.session")
				n, err := w.session(m, o, sp, bug.name, sys, first)
				o.end(sp)
				w.sessionMs = append(w.sessionMs, float64(time.Since(t0))/1e6)
				seeds += uint64(n)
				w.seedsRun += n
				if err != nil {
					return err
				}
			}
			return nil
		})
	}
	return counts{{"seeds_to_detect", seeds}}
}

// session hunts bug from seed first on and returns the seeds it ran.
func (w *bughuntWorkload) session(m *meter, o *op, parent int32, bug string, sys viper.Config, first uint64) (int, error) {
	detect := o.beginUnder(parent, "core.detect")
	var art *harness.Artifact
	n := 0
	for seed := first; seed < first+huntSeedCap && art == nil; seed++ {
		n++
		t0 := time.Now()
		sp := o.beginUnder(detect, "harness.BuildGPU")
		b := harness.BuildGPU(sys)
		o.end(sp)
		ring := harness.EnableTrace(b.K, 0)
		tc := huntConfig(bug, seed)
		sp = o.beginUnder(detect, "core.New")
		t := core.New(b.K, b.Sys, tc)
		o.end(sp)
		if n == 1 {
			m.addSetup(time.Since(t0))
		}
		sp = o.beginUnder(detect, "core.Tester.Run")
		rep := t.Run()
		o.end(sp)
		if !rep.Passed() {
			art = harness.NewGPUArtifact(sys, tc, t, rep, ring)
		}
	}
	o.end(detect)
	if art == nil {
		return n, fmt.Errorf("%s not detected in seeds %d..%d", bug, first, first+huntSeedCap-1)
	}

	dir, err := os.MkdirTemp(w.tmpRoot, "session-")
	if err != nil {
		return n, err
	}
	defer os.RemoveAll(dir)

	sp := o.beginUnder(parent, "harness.artifact")
	path, err := art.Write(dir)
	var loaded *harness.Artifact
	if err == nil {
		loaded, err = harness.LoadArtifact(path)
	}
	o.end(sp)
	if err != nil {
		return n, err
	}
	if fi, err := os.Stat(path); err == nil {
		w.artifactBytes = append(w.artifactBytes, float64(fi.Size()))
	}

	sp = o.beginUnder(parent, "harness.Replay")
	err = replayCheck(loaded)
	o.end(sp)
	if err != nil {
		return n, fmt.Errorf("%s replay: %w", bug, err)
	}

	sp = o.beginUnder(parent, "harness.BisectArtifact")
	bi, err := harness.BisectArtifact(loaded, 0)
	o.end(sp)
	if err != nil {
		return n, fmt.Errorf("%s bisect: %w", bug, err)
	}
	if bi.FirstFailingTick == 0 || bi.FirstFailingTick > bi.ReportedTick {
		return n, fmt.Errorf("%s bisect: first failing tick %d outside (0, %d]", bug, bi.FirstFailingTick, bi.ReportedTick)
	}

	sp = o.beginUnder(parent, "harness.Minimize")
	min := harness.Minimize(loaded, filepath.Base(path), bi.FirstFailingTick)
	minPath, err := harness.WriteMinimized(path, min)
	if err == nil {
		var reloaded *harness.Artifact
		if reloaded, err = harness.LoadArtifact(minPath); err == nil {
			err = replayCheck(reloaded)
		}
	}
	o.end(sp)
	if err != nil {
		return n, fmt.Errorf("%s minimized artifact: %w", bug, err)
	}
	return n, nil
}

// replayCheck replays a and verifies the failure reproduced.
func replayCheck(a *harness.Artifact) error {
	replayed, err := harness.Replay(a)
	if err != nil {
		return err
	}
	return harness.CheckReproduced(a, replayed)
}

func (w *bughuntWorkload) named(m *meter) []row {
	n := len(w.sessionMs)
	return []row{
		{"repro_ms_p50", percentile(w.sessionMs, 50), "ms", n},
		{"repro_ms_p75", percentile(w.sessionMs, 75), "ms", n},
	}
}

func (w *bughuntWorkload) layers(m *meter) map[string]float64 {
	d := m.tr.durations()
	return map[string]float64{
		"harness.build_ms":       median(d["harness.BuildGPU"]),
		"core.new_ms":            median(d["core.New"]),
		"core.run_ms":            median(d["core.Tester.Run"]),
		"core.detect_ms":         median(d["core.detect"]),
		"core.seeds_to_detect":   ratio(float64(w.seedsRun), float64(len(w.sessionMs))),
		"harness.artifact_ms":    median(d["harness.artifact"]),
		"harness.artifact_bytes": median(w.artifactBytes),
		"harness.replay_ms":      median(d["harness.Replay"]),
		"harness.bisect_ms":      median(d["harness.BisectArtifact"]),
		"harness.minimize_ms":    median(d["harness.Minimize"]),
		"runtime.gc_cpu_frac":    m.gcFrac(),
	}
}

func (w *bughuntWorkload) probeConfig() probeConfig {
	return probeConfig{sys: viper.SmallCacheConfig(), test: huntConfig("lostwrite", w.base)}
}
