// Package cache implements the storage half of a Ruby-style cache
// controller: a set-associative tag/data array with LRU replacement and
// per-byte dirty masks.
//
// Protocol state machines (package protocol and the controllers built
// on it) own the line *state*; this package only stores it, finds
// victims, and moves bytes. Per-byte masks exist because VIPER is a
// write-through protocol that merges partial-line writes, and because
// false sharing — distinct variables in one line — is the bug surface
// the tester deliberately provokes.
package cache

import (
	"fmt"

	"drftest/internal/mem"
)

// Config sizes a cache array. All three values must be powers of two
// and SizeBytes must be at least Assoc*LineSize.
type Config struct {
	SizeBytes int
	LineSize  int
	Assoc     int
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.SizeBytes / (c.LineSize * c.Assoc) }

func (c Config) validate() error {
	if c.SizeBytes <= 0 || c.LineSize <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache: non-positive config %+v", c)
	}
	for _, v := range []int{c.SizeBytes, c.LineSize, c.Assoc} {
		if v&(v-1) != 0 {
			return fmt.Errorf("cache: %d is not a power of two", v)
		}
	}
	if c.Sets() < 1 {
		return fmt.Errorf("cache: size %dB too small for %d-way %dB lines", c.SizeBytes, c.Assoc, c.LineSize)
	}
	return nil
}

// Line is one cache line. State is protocol-defined; Valid merely says
// the tag is meaningful (a line whose protocol state is the protocol's
// invalid state has Valid=false after Invalidate).
type Line struct {
	Tag   mem.Addr // line-aligned address
	Valid bool
	State int
	Data  []byte
	Dirty []bool

	lastUse uint64

	// epoch is the array's snapshot epoch this line was last journaled
	// in; while a snapshot is armed, any access that can hand the line
	// out for mutation saves an undo record the first time per epoch.
	epoch uint64
}

// ClearDirty resets the line's per-byte dirty mask.
func (l *Line) ClearDirty() {
	for i := range l.Dirty {
		l.Dirty[i] = false
	}
}

// WriteMasked merges src into the line under mask (nil = all bytes) and
// marks the written bytes dirty.
func (l *Line) WriteMasked(src []byte, mask []bool) {
	for i := range src {
		if mask != nil && !mask[i] {
			continue
		}
		l.Data[i] = src[i]
		l.Dirty[i] = true
	}
}

// Array is a set-associative cache array with true-LRU replacement.
type Array struct {
	cfg      Config
	sets     [][]Line
	useClock uint64

	// lines/data/dirty alias the flat slabs the sets are sliced from,
	// kept so snapshots can copy the whole array in three copies.
	lines []Line
	data  []byte
	dirty []bool

	// stats
	lookups uint64
	hits    uint64

	// Snapshot support: snap is the armed snapshot (nil when
	// journaling is off), epoch the current arming generation, and
	// journal the undo log of lines touched since arming. Restoring
	// the armed snapshot replays the journal — O(lines touched) — so
	// campaign forks skip the O(sets×ways) Reset scan.
	snap    *ArraySnapshot
	epoch   uint64
	journal []lineUndo

	// free holds released snapshots whose slabs the next Snapshot
	// refills instead of allocating (see Release).
	free []*ArraySnapshot
}

// ArraySnapshot is a deep copy of an Array's contents at one instant.
// A snapshot of a clean array (every line invalid with a zeroed LRU
// stamp — the just-built or just-reset state) copies no lines at all:
// clean is set and the slices are left unfilled, making warm-fork
// snapshot capture O(1) instead of O(capacity).
type ArraySnapshot struct {
	lines    []Line // scalar fields only; Data/Dirty live in data/dirty
	data     []byte
	dirty    []bool
	clean    bool
	useClock uint64
	lookups  uint64
	hits     uint64
}

type lineUndo struct {
	l    *Line
	save Line // value copy; save.Data/save.Dirty are private buffers
}

// NewArray builds an array for cfg; it panics on an invalid config
// because sizing errors are programming mistakes, not runtime input.
func NewArray(cfg Config) *Array {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	// One flat allocation each for the lines, data bytes and dirty
	// masks, sliced per line: building an array costs five allocations
	// regardless of size, instead of two per line. Full slice
	// expressions pin each line's capacity so no write can spill into a
	// neighbour.
	a := &Array{cfg: cfg, sets: make([][]Line, cfg.Sets())}
	total := cfg.Sets() * cfg.Assoc
	ls := cfg.LineSize
	lines := make([]Line, total)
	data := make([]byte, total*ls)
	dirty := make([]bool, total*ls)
	for i := range lines {
		lines[i].Data = data[i*ls : (i+1)*ls : (i+1)*ls]
		lines[i].Dirty = dirty[i*ls : (i+1)*ls : (i+1)*ls]
	}
	for s := range a.sets {
		a.sets[s] = lines[s*cfg.Assoc : (s+1)*cfg.Assoc : (s+1)*cfg.Assoc]
	}
	a.lines, a.data, a.dirty = lines, data, dirty
	return a
}

// Config returns the array's configuration.
func (a *Array) Config() Config { return a.cfg }

// Reset invalidates every line and zeroes the LRU clock and stats,
// returning the array to its just-built state without reallocating.
// Stale line data and dirty masks need not be cleared: invalid lines
// are never read (Valid gates every lookup, and Victim prefers an
// invalid way regardless of tag), and Install zeroes both when a way
// is claimed.
// Reset also disarms any armed snapshot rather than journaling every
// line; restoring that snapshot later still works via the
// full-copy-back path.
func (a *Array) Reset() {
	for s := range a.sets {
		for w := range a.sets[s] {
			a.sets[s][w].Valid = false
			a.sets[s][w].lastUse = 0
		}
	}
	a.useClock = 0
	a.lookups, a.hits = 0, 0
	a.snap = nil
	a.journal = a.journal[:0]
}

func (a *Array) setIndex(line mem.Addr) int {
	return int(line/mem.Addr(a.cfg.LineSize)) & (a.cfg.Sets() - 1)
}

// Lookup returns the line holding addr's cache line, or nil on miss.
// A hit refreshes LRU state.
func (a *Array) Lookup(addr mem.Addr) *Line {
	line := mem.LineAddr(addr, a.cfg.LineSize)
	set := a.sets[a.setIndex(line)]
	a.lookups++
	for w := range set {
		if set[w].Valid && set[w].Tag == line {
			if a.snap != nil && set[w].epoch != a.epoch {
				a.journalLine(&set[w])
			}
			a.useClock++
			set[w].lastUse = a.useClock
			a.hits++
			return &set[w]
		}
	}
	return nil
}

// Peek is Lookup without LRU or stats side effects. (The returned
// line may still be mutated by the caller, so it is journaled like any
// other escape while a snapshot is armed.)
func (a *Array) Peek(addr mem.Addr) *Line {
	line := mem.LineAddr(addr, a.cfg.LineSize)
	set := a.sets[a.setIndex(line)]
	for w := range set {
		if set[w].Valid && set[w].Tag == line {
			if a.snap != nil && set[w].epoch != a.epoch {
				a.journalLine(&set[w])
			}
			return &set[w]
		}
	}
	return nil
}

// Victim returns the line that would be evicted to make room for addr:
// an invalid way if one exists, otherwise the least recently used way
// for which mayEvict returns true (nil mayEvict allows all). It returns
// nil when every way is pinned — the caller must stall, exactly like a
// Ruby controller waiting on a busy set.
func (a *Array) Victim(addr mem.Addr, mayEvict func(*Line) bool) *Line {
	set := a.sets[a.setIndex(mem.LineAddr(addr, a.cfg.LineSize))]
	var victim *Line
	for w := range set {
		l := &set[w]
		if !l.Valid {
			victim = l
			break
		}
		if mayEvict != nil && !mayEvict(l) {
			continue
		}
		if victim == nil || l.lastUse < victim.lastUse {
			victim = l
		}
	}
	if victim != nil && a.snap != nil && victim.epoch != a.epoch {
		a.journalLine(victim)
	}
	return victim
}

// Install claims way for addr's line: sets the tag, validates it,
// zeroes the data and dirty mask, and refreshes LRU. The way must come
// from Victim (or be otherwise known free).
func (a *Array) Install(way *Line, addr mem.Addr, state int) *Line {
	if a.snap != nil && way.epoch != a.epoch {
		a.journalLine(way)
	}
	way.Tag = mem.LineAddr(addr, a.cfg.LineSize)
	way.Valid = true
	way.State = state
	for i := range way.Data {
		way.Data[i] = 0
		way.Dirty[i] = false
	}
	a.useClock++
	way.lastUse = a.useClock
	return way
}

// Invalidate drops addr's line if present.
func (a *Array) Invalidate(addr mem.Addr) {
	if l := a.Peek(addr); l != nil {
		l.Valid = false
	}
}

// FlashInvalidate visits every valid line (the VIPER load-acquire
// semantic). If visit returns false the line is kept — controllers use
// this to preserve lines with in-flight transactions.
func (a *Array) FlashInvalidate(visit func(*Line) bool) int {
	n := 0
	for s := range a.sets {
		for w := range a.sets[s] {
			l := &a.sets[s][w]
			if !l.Valid {
				continue
			}
			if a.snap != nil && l.epoch != a.epoch {
				a.journalLine(l)
			}
			if visit == nil || visit(l) {
				l.Valid = false
				n++
			}
		}
	}
	return n
}

// ForEachValid visits every valid line. Visitors may mutate the line
// (controllers use this for write-back flushes), so each visited line
// is journaled while a snapshot is armed.
func (a *Array) ForEachValid(visit func(*Line)) {
	for s := range a.sets {
		for w := range a.sets[s] {
			if a.sets[s][w].Valid {
				if a.snap != nil && a.sets[s][w].epoch != a.epoch {
					a.journalLine(&a.sets[s][w])
				}
				visit(&a.sets[s][w])
			}
		}
	}
}

// CountValid returns the number of valid lines.
func (a *Array) CountValid() int {
	n := 0
	a.ForEachValid(func(*Line) { n++ })
	return n
}

// Stats returns (lookups, hits) since construction.
func (a *Array) Stats() (lookups, hits uint64) { return a.lookups, a.hits }

// journalLine saves l's pre-mutation state into the undo journal, once
// per line per arming epoch. Journal entries keep their saved-copy
// buffers across truncation, so steady-state forking journals without
// allocating.
func (a *Array) journalLine(l *Line) {
	n := len(a.journal)
	if n < cap(a.journal) {
		a.journal = a.journal[:n+1]
		u := &a.journal[n]
		d, m := u.save.Data, u.save.Dirty
		u.l = l
		u.save = *l
		u.save.Data = append(d[:0], l.Data...)
		u.save.Dirty = append(m[:0], l.Dirty...)
	} else {
		u := lineUndo{l: l, save: *l}
		u.save.Data = append([]byte(nil), l.Data...)
		u.save.Dirty = append([]bool(nil), l.Dirty...)
		a.journal = append(a.journal, u)
	}
	l.epoch = a.epoch
}

// Snapshot deep-copies the array (three flat copies plus scalars) and
// arms undo journaling so Restore of this snapshot replays only the
// lines touched since. The snapshot shares no mutable storage with
// the array and stays valid across later snapshots, restores and
// resets. When a released snapshot is available (Release), its slabs
// are refilled in place instead of allocating new ones.
func (a *Array) Snapshot() *ArraySnapshot {
	var s *ArraySnapshot
	if n := len(a.free); n > 0 {
		s = a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
	} else {
		s = &ArraySnapshot{}
	}
	s.useClock, s.lookups, s.hits = a.useClock, a.lookups, a.hits
	// Nothing worth copying from a clean array: invalid lines are never
	// read (Install zeroes a claimed way), so the restore path can
	// reproduce this state with a Reset-style invalidation scan
	// instead of a copy. A recycled snapshot keeps its slabs for later
	// reuse either way.
	s.clean = a.isClean()
	if !s.clean {
		s.lines = append(s.lines[:0], a.lines...)
		s.data = append(s.data[:0], a.data...)
		s.dirty = append(s.dirty[:0], a.dirty...)
	}
	a.snap = s
	a.journal = a.journal[:0]
	a.epoch++
	return s
}

// Release hands s back for reuse by a later Snapshot; the caller
// promises never to Restore s again. Callers that take and drop
// snapshots in last-in first-out order (a depth-first search
// backtracking over cuts) thereby snapshot without allocating.
func (a *Array) Release(s *ArraySnapshot) { a.free = append(a.free, s) }

// isClean reports whether every line is invalid with a zeroed LRU
// stamp — the just-built / just-reset state a warm-fork snapshot is
// taken over. The scan touches only line headers, a fraction of the
// copy it avoids.
func (a *Array) isClean() bool {
	for i := range a.lines {
		if a.lines[i].Valid || a.lines[i].lastUse != 0 {
			return false
		}
	}
	return true
}

// Restore returns the array to the state captured by s. When s is the
// armed snapshot the undo journal is replayed in reverse — O(lines
// touched since Snapshot). Otherwise every line is copied back from
// the snapshot and s becomes the armed snapshot.
func (a *Array) Restore(s *ArraySnapshot) {
	if a.snap == s {
		for i := len(a.journal) - 1; i >= 0; i-- {
			u := &a.journal[i]
			l := u.l
			copy(l.Data, u.save.Data)
			copy(l.Dirty, u.save.Dirty)
			l.Tag, l.Valid, l.State = u.save.Tag, u.save.Valid, u.save.State
			l.lastUse, l.epoch = u.save.lastUse, u.save.epoch
		}
		a.journal = a.journal[:0]
	} else {
		if s.clean {
			for i := range a.lines {
				l := &a.lines[i]
				l.Valid, l.lastUse, l.epoch = false, 0, 0
			}
		} else {
			copy(a.data, s.data)
			copy(a.dirty, s.dirty)
			for i := range a.lines {
				l, sl := &a.lines[i], &s.lines[i]
				l.Tag, l.Valid, l.State, l.lastUse = sl.Tag, sl.Valid, sl.State, sl.lastUse
				l.epoch = 0
			}
		}
		a.snap = s
		a.journal = a.journal[:0]
		a.epoch++
	}
	a.useClock, a.lookups, a.hits = s.useClock, s.lookups, s.hits
}
