package explore

import (
	"drftest/internal/sim"
	"drftest/internal/viper"
)

// depGeom holds the cache geometry the independence relation needs:
// two line-footprinted events only commute when their lines are
// distinct AND map to different sets at every cache level — same-set
// lines interact through replacement state (victim choice, LRU), so
// their order is observable protocol state.
type depGeom struct {
	lineSize uint64
	l1Sets   uint64
	l2Sets   uint64
}

func newDepGeom(c viper.Config) depGeom {
	return depGeom{
		lineSize: uint64(c.L1.LineSize),
		l1Sets:   uint64(c.L1.Sets()),
		l2Sets:   uint64(c.L2.Sets()),
	}
}

// conflict reports whether two line addresses can touch shared cache
// state.
func (g depGeom) conflict(la, lb uint64) bool {
	if la == lb {
		return true
	}
	a, b := la/g.lineSize, lb/g.lineSize
	return a%g.l1Sets == b%g.l1Sets || a%g.l2Sets == b%g.l2Sets
}

// dependent is the explorer's dependence relation over event tags.
// Everything is dependent unless both events declare a line footprint,
// belong to different ordering units, and their lines cannot conflict
// — the conservative direction is always "dependent", which costs
// exploration work but never soundness.
func (e *engine) dependent(aTag, bTag uint64) bool {
	if aTag == 0 || bTag == 0 {
		return true
	}
	if sim.TagUnit(aTag) == sim.TagUnit(bTag) {
		return true
	}
	la, aok := sim.TagLine(aTag)
	lb, bok := sim.TagLine(bTag)
	if !aok || !bok {
		return true
	}
	return e.geom.conflict(la, lb)
}

// node is one open branching decision point on the DFS stack.
type node struct {
	// cut is the full run-context snapshot taken from inside Choose,
	// before the decision fired: restoring it re-presents the identical
	// candidate set.
	cut *cut
	// cands are the viable (not-asleep) candidates; next indexes the
	// one the resumed Choose call takes.
	cands []sim.Enabled
	next  int
	// sleep is the live sleep set as it stood at this decision (the Z
	// of Godefroid's algorithm), seq → tag.
	sleep map[uint64]uint64
	// scriptLen is the schedule script's length at this decision, for
	// truncation on backtrack.
	scriptLen int
}

// engine is the DFS explorer; it implements sim.Chooser.
type engine struct {
	cfg  *Config
	run  *run
	geom depGeom

	stack  []*node
	script []uint64
	// live is the current path's sleep set: events that an
	// already-explored sibling branch fired first and nothing dependent
	// has executed since, seq → tag.
	live map[uint64]uint64
	// resume marks that the next Choose call re-presents the stack
	// top's decision (the cut was just restored) and must take its next
	// candidate.
	resume  bool
	aborted bool
	res     Result
}

// Choose implements sim.Chooser: it is called once per fired event and
// is where branching decision points are snapshotted.
func (e *engine) Choose(now sim.Tick, cands []sim.Enabled) int {
	if e.resume {
		return e.resumeChoose(cands)
	}

	viable := cands
	if e.cfg.Prune && len(e.live) > 0 {
		viable = viable[:0:0]
		for _, c := range cands {
			if _, asleep := e.live[c.Seq]; !asleep {
				viable = append(viable, c)
			}
		}
		if len(viable) == 0 {
			// Every candidate is asleep: any continuation is a
			// commuting reordering of an explored schedule. Abandon the
			// path.
			e.aborted = true
			e.res.PrunedPaths++
			e.run.build.K.Stop()
			return 0
		}
		e.res.PrunedBranches += uint64(len(cands) - len(viable))
	}

	if len(viable) > 1 && len(e.stack) < e.cfg.Depth {
		n := &node{
			cands:     append([]sim.Enabled(nil), viable...),
			next:      1,
			sleep:     cloneSleep(e.live),
			scriptLen: len(e.script),
		}
		n.cut = e.run.snapshot()
		e.stack = append(e.stack, n)
		e.res.ChoicePoints++
	} else if len(viable) > 1 {
		e.res.DepthLimited = true
	}

	return e.pick(cands, viable[0])
}

// resumeChoose continues the stack top's decision with its next
// unexplored candidate: the sibling branch. Per Godefroid, the branch
// firing candidate i starts with sleep set
// {s ∈ Z ∪ {cands[0..i-1]} : s independent of cands[i]}.
func (e *engine) resumeChoose(cands []sim.Enabled) int {
	e.resume = false
	n := e.stack[len(e.stack)-1]
	chosen := n.cands[n.next]
	n.next++

	e.live = make(map[uint64]uint64, len(n.sleep)+n.next)
	for seq, tag := range n.sleep {
		e.live[seq] = tag
	}
	for i := 0; i < n.next-1; i++ {
		e.live[n.cands[i].Seq] = n.cands[i].Tag
	}
	return e.pick(cands, chosen)
}

// pick records and returns the chosen candidate's index, waking every
// sleeping event that depends on it.
func (e *engine) pick(cands []sim.Enabled, chosen sim.Enabled) int {
	for seq, tag := range e.live {
		if seq == chosen.Seq || e.dependent(tag, chosen.Tag) {
			delete(e.live, seq)
		}
	}
	if len(cands) > 1 {
		e.script = append(e.script, chosen.Seq)
	}
	for i := range cands {
		if cands[i].Seq == chosen.Seq {
			return i
		}
	}
	panic("explore: chosen candidate vanished from the candidate set")
}

func cloneSleep(m map[uint64]uint64) map[uint64]uint64 {
	out := make(map[uint64]uint64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// scheduleDone accounts for the schedule that just ended (completed or
// abandoned) and reports whether exploration must stop (violation
// found or budget exhausted).
func (e *engine) scheduleDone() (stop bool, err error) {
	if e.aborted {
		// Sleep-set-redundant path: already counted, no verdict.
		e.aborted = false
	} else {
		e.res.Schedules++
		e.run.tester.Finish()
		rep := e.run.tester.Report()
		if len(rep.Failures) > 0 || len(rep.StreamViolations) > 0 {
			v := &Violation{
				Schedule:         append([]uint64(nil), e.script...),
				StreamViolations: len(rep.StreamViolations),
			}
			if len(rep.Failures) > 0 {
				art, err := e.run.artifact(e.cfg, v.Schedule, rep)
				if err != nil {
					return true, err
				}
				v.Failure = art.FirstFailure()
				e.res.Artifact = art
				if e.cfg.ArtifactDir != "" {
					path, werr := art.Write(e.cfg.ArtifactDir)
					if werr != nil {
						return true, werr
					}
					v.ArtifactPath = path
				}
			}
			e.res.Violation = v
			return true, nil
		}
	}
	if e.res.Schedules+e.res.PrunedPaths >= e.cfg.Budget {
		e.res.BudgetExhausted = true
		return true, nil
	}
	return false, nil
}

// backtrack rewinds to the deepest decision point with an unexplored
// candidate and arms the resumed Choose, releasing the cut of every
// exhausted decision point it pops. It returns false when the stack is
// exhausted (the bounded space is fully enumerated).
func (e *engine) backtrack() bool {
	for len(e.stack) > 0 {
		n := e.stack[len(e.stack)-1]
		if n.next < len(n.cands) {
			e.run.restore(n.cut)
			e.script = e.script[:n.scriptLen]
			e.resume = true
			return true
		}
		e.run.release(n.cut)
		e.stack[len(e.stack)-1] = nil
		e.stack = e.stack[:len(e.stack)-1]
	}
	return false
}
