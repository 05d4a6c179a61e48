package explore

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"drftest/internal/core"
	"drftest/internal/harness"
	"drftest/internal/viper"
)

// TestExploreFindsInjectedBugs asserts the satellite acceptance
// criterion: each injected protocol bug is found at a minimal
// 2-wavefront configuration within the depth bound, and the emitted
// schedule artifact replays to the same violation bit-identically.
// The artifact bytes are pinned by SHA-256: they come from a traced
// re-run of the violating schedule, and must equal what tracing the
// explored run itself produced.
func TestExploreFindsInjectedBugs(t *testing.T) {
	cases := []struct {
		name string
		bugs viper.BugSet
		sys  viper.Config
		tc   core.Config
		sha  string
	}{
		// LostWriteRace needs two false-sharing writes racing on one
		// line: the spread config's 2 lanes per WF provide them.
		{"lostwrite", viper.BugSet{LostWriteRace: true}, exploreSysCfg(), exploreSpreadCfg(3),
			"c7cacd71b450b53c10af4f31764ee8e5ce1d75d64887915743d54f957533b522"},
		// NonAtomicRMW surfaces on the tiniest config: both WFs
		// fetch-add the single sync variable.
		{"nonatomic", viper.BugSet{NonAtomicRMW: true}, exploreSysCfg(), exploreTestCfg(1),
			"bb07d913f669a5b28a08e8ef3068ee0d8a044dae09cc6dd7d2f40fd372568f62"},
		// A dropped write-back ack deadlocks the issuing thread; every
		// 2nd ack dropped so even a 6-action episode hits one.
		{"dropack", viper.BugSet{DropWBAckEvery: 2}, exploreSysCfg(), exploreTestCfg(1),
			"fc1b1bc547ba08bc3ec6246d9c965e951d4c507ca1047e3078c85976c46adbfe"},
		// StaleAcquire needs an episode to re-read a line its CU cached
		// before the acquire — the richer 2-lane, 8-episode history.
		{"staleacquire", viper.BugSet{StaleAcquire: true}, exploreBigSetsSys(), exploreRichCfg(2),
			"9adc937445a326b5ed384b828acdc323e08b313e00107ac19e94aadaa3e87d40"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys := tc.sys
			sys.Bugs = tc.bugs
			dir := t.TempDir()
			res, err := Run(Config{
				SysCfg:      sys,
				TestCfg:     tc.tc,
				Depth:       10,
				Budget:      5_000,
				Prune:       true,
				ArtifactDir: dir,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation == nil {
				t.Fatalf("bug %s not found within depth bound: %+v", tc.name, res)
			}
			if res.Violation.ArtifactPath == "" {
				t.Fatalf("violation found but no artifact written: %+v", res.Violation)
			}
			t.Logf("%s: violation after %d schedules (+%d pruned), schedule length %d",
				tc.name, res.Schedules, res.PrunedPaths, len(res.Violation.Schedule))
			checkArtifactSHA(t, res.Artifact, tc.sha)

			// The written artifact must replay to the same violation
			// bit-identically, with the recorded schedule pinned.
			art, err := harness.LoadArtifact(res.Violation.ArtifactPath)
			if err != nil {
				t.Fatal(err)
			}
			if len(art.Schedule) != len(res.Violation.Schedule) {
				t.Fatalf("artifact schedule length %d != violation schedule length %d",
					len(art.Schedule), len(res.Violation.Schedule))
			}
			replayed, err := harness.Replay(art)
			if err != nil {
				t.Fatal(err)
			}
			if err := harness.CheckReproduced(art, replayed); err != nil {
				t.Fatalf("schedule artifact did not reproduce: %v", err)
			}
		})
	}
}

// TestExploreBeatsRandomSchedule is the mode's raison d'être: a seed
// whose default (random-program, FIFO-schedule) run is clean, but where
// systematic schedule enumeration of that same program exposes the
// injected StaleAcquire bug.
func TestExploreBeatsRandomSchedule(t *testing.T) {
	sys := exploreBigSetsSys()
	sys.Bugs = viper.BugSet{StaleAcquire: true}
	tc := exploreRichCfg(16)
	if defaultRunFails(sys, tc) {
		t.Fatal("expected the default schedule of seed 16 to be clean; workload generation changed")
	}
	res, err := Run(Config{
		SysCfg:  sys,
		TestCfg: tc,
		Depth:   14,
		Budget:  3_000,
		Prune:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatalf("exploration did not expose the bug the random schedule missed: %+v", res)
	}
	t.Logf("default schedule clean; violation on explored schedule %d (+%d pruned), schedule length %d",
		res.Schedules, res.PrunedPaths, len(res.Violation.Schedule))
	if res.Schedules != 5 || res.PrunedPaths != 24 {
		t.Fatalf("violation after %d schedules (+%d pruned), want 5 (+24)", res.Schedules, res.PrunedPaths)
	}
	checkArtifactSHA(t, res.Artifact, "9335f866dba46b01a2fa16295c1a972dae182234d7918d37a4ed99a2291aaebd")
	replayed, err := harness.Replay(res.Artifact)
	if err != nil {
		t.Fatal(err)
	}
	if err := harness.CheckReproduced(res.Artifact, replayed); err != nil {
		t.Fatalf("schedule artifact did not reproduce: %v", err)
	}
}

// checkArtifactSHA pins an explorer violation artifact's encoded bytes.
func checkArtifactSHA(t *testing.T, art *harness.Artifact, want string) {
	t.Helper()
	if art == nil {
		t.Fatal("violation found but no in-memory artifact")
	}
	data, err := art.Encode()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("artifact sha256 %s, want %s", got, want)
	}
}
