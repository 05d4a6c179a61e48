// Package explore implements bounded exhaustive schedule exploration:
// a DPOR-style stateless model-checking mode over the GPU tester.
//
// Where a campaign (internal/harness) samples one random schedule per
// seed, the explorer systematically enumerates the schedules a single
// seed can take. It drives the kernel's schedule choice point
// (sim.Chooser): whenever more than one event is co-enabled at a tick,
// the explorer snapshots the run context — kernel, system, tester and
// coverage, the cut checkpointed replay uses minus its trace ring —
// runs one candidate, and later rewinds the cut to run the others,
// depth-first. Every completed schedule is asserted by the
// streaming axiomatic checker (checker.Stream via core's StreamCheck)
// plus the tester's own autonomous checks, so the result upgrades "no
// violation in N random seeds" to "no violation in any explored
// schedule of this seed up to depth D".
//
// Exploration runs untraced: copying a trace ring into every cut would
// dominate the cost of a schedule, and only a violating schedule needs
// its trace. That one schedule is re-run from scratch under its choice
// script with a trace attached (harness.Replay), and the re-run must
// reproduce the explored failure. Cuts are dropped in the reverse
// order they were taken — the search is depth-first — so a popped
// cut's cache-array storage is released for the next cut to refill
// (viper.System.Release).
//
// Two classic partial-order reductions keep the enumeration tractable:
//
//   - Independence: two events commute when they belong to different
//     ordering units, both declare a line footprint, and the lines
//     neither match nor collide in any cache set (set conflicts share
//     replacement state). Commuting events need not be explored in
//     both orders.
//   - Sleep sets (Godefroid): after exploring the branch that fires
//     event a before b, sibling branches carry a in their sleep set;
//     a stays asleep while everything executed is independent of it,
//     and a branch about to fire a sleeping event is abandoned — the
//     schedule is a reordering of commuting events only, so some
//     already-explored schedule reaches the same verdict.
//
// Soundness is with respect to verdict-relevant state: the checkers'
// inputs and the protocol state they audit. Diagnostic state (trace
// ring order, latency histograms, the event log) may differ between
// schedules a reduction identifies, which is why anything whose effect
// is not provably confined to its declared footprint — RNG-drawing
// issue rounds, acquire flash-invalidates, release retirement —
// carries no footprint and stays dependent with everything. Untagged
// events additionally keep their deterministic relative order, a
// conservative under-approximation of the schedule space (see
// sim/chooser.go).
package explore

import (
	"fmt"

	"drftest/internal/core"
	"drftest/internal/coverage"
	"drftest/internal/harness"
	"drftest/internal/sim"
	"drftest/internal/viper"
)

// DefaultDepth bounds how many multi-candidate choice points may
// branch along one schedule; beyond it the explorer follows FIFO
// order.
const DefaultDepth = 8

// DefaultBudget bounds the number of schedules (completed plus
// abandoned-as-redundant) one exploration may cost.
const DefaultBudget = 10_000

// Config parameterizes one exploration.
type Config struct {
	// SysCfg and TestCfg describe the run to explore. Exploration is
	// only tractable for small configurations (2–4 wavefronts, few
	// variables, short episodes); StreamCheck is forced on so the
	// axiomatic checker asserts every schedule.
	SysCfg  viper.Config
	TestCfg core.Config

	// Depth bounds branching choice points per schedule (<=0 → DefaultDepth).
	Depth int
	// Budget bounds explored schedules (<=0 → DefaultBudget).
	Budget uint64
	// Prune enables the independence/sleep-set reduction. With it off
	// the explorer enumerates naively — the comparison baseline the CI
	// prune-ratio gate measures against.
	Prune bool

	// TraceDepth is the trace-ring depth of the violating schedule's
	// re-run, the trace its artifact embeds (<=0 → harness default).
	// Exploration itself runs untraced.
	TraceDepth int
	// ArtifactDir, when set, receives the replay artifact of the first
	// violating schedule (with its `schedule` field populated).
	ArtifactDir string
}

// Violation describes the first violating schedule found.
type Violation struct {
	// Schedule is the choice script that reproduces the violation: one
	// chosen event sequence number per multi-candidate choice point, in
	// execution order (the artifact's `schedule` field).
	Schedule []uint64 `json:"schedule"`
	// Failure is the schedule's first failure (empty Kind when the
	// violation was found by the stream checker alone).
	Failure harness.ArtifactFailure `json:"failure"`
	// StreamViolations counts the axiomatic checker's findings.
	StreamViolations int `json:"streamViolations"`
	// ArtifactPath is where the replay artifact was written ("" when no
	// ArtifactDir was configured or the failure was stream-only).
	ArtifactPath string `json:"artifactPath,omitempty"`
}

// Result reports a completed exploration.
type Result struct {
	// Schedules counts completed (fully executed and checked)
	// schedules; PrunedPaths counts schedules abandoned mid-run as
	// sleep-set-redundant; PrunedBranches counts sibling branches
	// skipped without ever running.
	Schedules      uint64 `json:"schedules"`
	PrunedPaths    uint64 `json:"prunedPaths"`
	PrunedBranches uint64 `json:"prunedBranches"`
	// ChoicePoints counts branching decision points snapshotted.
	ChoicePoints uint64 `json:"choicePoints"`
	// Depth and Budget echo the effective bounds.
	Depth  int    `json:"depth"`
	Budget uint64 `json:"budget"`
	// DepthLimited reports that some multi-candidate choice point fell
	// beyond the depth bound (the guarantee is "up to depth D", not
	// total); BudgetExhausted that enumeration stopped at the budget.
	DepthLimited    bool `json:"depthLimited"`
	BudgetExhausted bool `json:"budgetExhausted"`
	// Violation is the first violating schedule, nil for a clean
	// exploration.
	Violation *Violation `json:"violation,omitempty"`

	// Artifact is the in-memory violating-schedule artifact (also
	// written to ArtifactDir when configured); nil for clean runs and
	// stream-only violations.
	Artifact *harness.Artifact `json:"-"`
}

// Complete reports whether the bounded schedule space was fully
// enumerated (no budget exhaustion and no violation cut it short).
func (r *Result) Complete() bool {
	return !r.BudgetExhausted && r.Violation == nil
}

// cut is one run-context snapshot — the composition checkpointed
// replay bisection uses (harness.gpuCheckpoint) minus the trace ring,
// which exploration does not attach.
type cut struct {
	kernel *sim.KernelSnapshot
	sys    *viper.SystemSnapshot
	tester *core.TesterSnapshot
	col    *coverage.CollectorSnapshot
}

// run owns the system under exploration. testCfg is the effective
// tester config (StreamCheck forced on) — violation artifacts embed it
// so replay rebuilds the identical tester.
type run struct {
	build   *harness.GPUBuild
	tester  *core.Tester
	testCfg core.Config
}

func newRun(cfg *Config) (*run, error) {
	r := &run{build: harness.BuildGPU(cfg.SysCfg)}
	r.build.Sys.EnableCheckpointing()
	tc := cfg.TestCfg
	tc.StreamCheck = true
	r.testCfg = tc
	r.tester = core.New(r.build.K, r.build.Sys, tc)
	if err := r.tester.CanCheckpoint(); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *run) snapshot() *cut {
	return &cut{
		kernel: r.build.K.Snapshot(),
		sys:    r.build.Sys.Snapshot(),
		tester: r.tester.Snapshot(),
		col:    r.build.Col.Snapshot(),
	}
}

func (r *run) restore(c *cut) {
	r.build.K.Restore(c.kernel)
	r.build.Sys.Restore(c.sys)
	r.tester.Restore(c.tester)
	r.build.Col.Restore(c.col)
}

// release declares c dead (it is never restored again) so the next
// snapshot can reuse its storage.
func (r *run) release(c *cut) { r.build.Sys.Release(c.sys) }

// artifact builds the replay artifact of the violating schedule script
// whose explored run just reported rep. The explored run is untraced,
// so the schedule is re-run from scratch with a trace ring attached at
// cfg.TraceDepth; the re-run must reproduce the explored run's first
// failure, op counts and RNG state, or exploration reports an error.
func (r *run) artifact(cfg *Config, script []uint64, rep *core.Report) (*harness.Artifact, error) {
	explored := harness.NewGPUArtifact(cfg.SysCfg, r.testCfg, r.tester, rep, nil)
	explored.Schedule = script
	explored.TraceCapacity = cfg.TraceDepth
	art, err := harness.Replay(explored)
	if err != nil {
		return nil, fmt.Errorf("explore: re-running violating schedule: %w", err)
	}
	if err := harness.CheckReproduced(explored, art); err != nil {
		return nil, fmt.Errorf("explore: violating schedule did not reproduce on re-run: %w", err)
	}
	return art, nil
}

// Run explores the configured run's schedule space depth-first and
// returns the exploration report. It stops at the first violating
// schedule.
func Run(cfg Config) (*Result, error) {
	if cfg.Depth <= 0 {
		cfg.Depth = DefaultDepth
	}
	if cfg.Budget == 0 {
		cfg.Budget = DefaultBudget
	}
	r, err := newRun(&cfg)
	if err != nil {
		return nil, err
	}
	e := &engine{
		cfg:  &cfg,
		run:  r,
		geom: newDepGeom(cfg.SysCfg),
		live: make(map[uint64]uint64),
		res:  Result{Depth: cfg.Depth, Budget: cfg.Budget},
	}
	r.build.K.SetChooser(e)
	defer func() {
		r.build.K.SetChooser(nil)
		// Quiesce the stream pipeline's worker goroutine (Report
		// finishes the stream, which joins it) so explorations don't
		// leak it, on error returns too. Finish is idempotent, so this
		// is a no-op after a completed final schedule.
		_ = r.tester.Report()
	}()

	r.tester.Start()
	for {
		r.build.K.RunUntilIdle()
		stop, err := e.scheduleDone()
		if err != nil {
			return nil, err
		}
		if stop || !e.backtrack() {
			break
		}
	}
	return &e.res, nil
}
