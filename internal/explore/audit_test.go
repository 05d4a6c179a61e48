package explore

import (
	"testing"

	"drftest/internal/audit"
)

// TestStateFieldAudits pins the explorer's state structs: a new field
// on the DFS engine, its stack nodes, or the run-context cut must
// declare how backtracking treats it — restored by the cut, rebuilt per
// branch, or accumulated across the whole exploration — before it can
// land.
func TestStateFieldAudits(t *testing.T) {
	audit.Fields(t, cut{}, map[string]string{
		"kernel": "cut: kernel event-queue snapshot, restored verbatim on backtrack",
		"sys":    "cut: full coherence-stack snapshot, restored verbatim on backtrack",
		"tester": "cut: tester + stream-checker snapshot, restored verbatim on backtrack",
		"col":    "cut: coverage-collector snapshot, restored verbatim on backtrack",
	})
	audit.Fields(t, node{}, map[string]string{
		"cut":       "branch: snapshot taken inside Choose before the decision fired; restored to re-present the identical candidate set, released when the node is popped",
		"cands":     "branch: viable candidates at the decision, fixed once taken",
		"next":      "branch: next sibling index, advanced by resumeChoose",
		"sleep":     "branch: sleep set as it stood at the decision (Godefroid's Z), cloned into each sibling",
		"scriptLen": "branch: script length at the decision, truncation point on backtrack",
	})
	audit.Fields(t, engine{}, map[string]string{
		"cfg":     "config: exploration parameters, fixed for the run",
		"run":     "config: system under exploration; its state is carried by cuts, not the engine",
		"geom":    "config: cache geometry for the independence relation, fixed at construction",
		"stack":   "dfs: open decision points; pushed by Choose, popped by backtrack",
		"script":  "dfs: current path's choice script, truncated to node.scriptLen on backtrack",
		"live":    "dfs: current path's sleep set; rebuilt from node.sleep on resume, mutated by pick",
		"resume":  "dfs: armed by backtrack, consumed by the next Choose call",
		"aborted": "dfs: set when a path is abandoned as sleep-set-redundant, cleared by scheduleDone",
		"res":     "report: accumulates across the whole exploration, never rewound",
	})
	audit.Fields(t, run{}, map[string]string{
		"build":   "config: kernel + system + collector under exploration",
		"tester":  "config: tester under exploration (snapshotted via cuts)",
		"testCfg": "config: effective tester config (StreamCheck forced on), embedded in violation artifacts",
	})
}
