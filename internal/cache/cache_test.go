package cache

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"drftest/internal/mem"
)

var cfg64 = Config{SizeBytes: 1024, LineSize: 64, Assoc: 2} // 8 sets × 2 ways

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, LineSize: 64, Assoc: 2},
		{SizeBytes: 1000, LineSize: 64, Assoc: 2},  // not a power of two
		{SizeBytes: 64, LineSize: 64, Assoc: 2},    // too small for assoc
		{SizeBytes: 1024, LineSize: 48, Assoc: 2},  // line not power of two
		{SizeBytes: 1024, LineSize: 64, Assoc: -1}, // negative
	}
	for _, c := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewArray(%+v) did not panic", c)
				}
			}()
			NewArray(c)
		}()
	}
	if got := cfg64.Sets(); got != 8 {
		t.Fatalf("Sets() = %d, want 8", got)
	}
}

func TestInstallThenLookup(t *testing.T) {
	a := NewArray(cfg64)
	err := quick.Check(func(raw uint16) bool {
		addr := mem.Addr(raw) * 4
		line := mem.LineAddr(addr, 64)
		v := a.Victim(addr, nil)
		a.Install(v, addr, 1)
		got := a.Lookup(addr)
		return got != nil && got.Tag == line && got.State == 1
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLookupMiss(t *testing.T) {
	a := NewArray(cfg64)
	if a.Lookup(0x1000) != nil {
		t.Fatal("empty cache hit")
	}
	lookups, hits := a.Stats()
	if lookups != 1 || hits != 0 {
		t.Fatalf("stats (%d,%d), want (1,0)", lookups, hits)
	}
}

func TestLRUEvictsLeastRecent(t *testing.T) {
	a := NewArray(cfg64)
	// Three lines mapping to set 0 (stride = sets*lineSize = 512).
	addrs := []mem.Addr{0, 512, 1024}
	a.Install(a.Victim(addrs[0], nil), addrs[0], 1)
	a.Install(a.Victim(addrs[1], nil), addrs[1], 1)
	a.Lookup(addrs[0]) // make addrs[1] the LRU
	v := a.Victim(addrs[2], nil)
	if !v.Valid || v.Tag != addrs[1] {
		t.Fatalf("victim is %#x (valid=%v), want %#x", uint64(v.Tag), v.Valid, uint64(addrs[1]))
	}
}

func TestVictimRespectsPin(t *testing.T) {
	a := NewArray(cfg64)
	a.Install(a.Victim(0, nil), 0, 1)
	a.Install(a.Victim(512, nil), 512, 2)
	// Pin everything: no victim available.
	if v := a.Victim(1024, func(*Line) bool { return false }); v != nil {
		t.Fatalf("pinned set yielded victim %#x", uint64(v.Tag))
	}
	// Allow only state 2.
	v := a.Victim(1024, func(l *Line) bool { return l.State == 2 })
	if v == nil || v.Tag != 512 {
		t.Fatal("filter ignored")
	}
}

func TestInstallZeroesData(t *testing.T) {
	a := NewArray(cfg64)
	v := a.Victim(0, nil)
	e := a.Install(v, 0, 1)
	e.WriteMasked([]byte{1, 2, 3}, nil)
	if !e.Dirty[0] {
		t.Fatal("WriteMasked did not mark dirty")
	}
	a.Install(e, 512, 1)
	for i, b := range e.Data[:4] {
		if b != 0 || e.Dirty[i] {
			t.Fatal("Install did not reset data/dirty")
		}
	}
}

func TestWriteMasked(t *testing.T) {
	a := NewArray(cfg64)
	e := a.Install(a.Victim(0, nil), 0, 1)
	src := make([]byte, 64)
	mask := make([]bool, 64)
	src[5], mask[5] = 0xAB, true
	e.WriteMasked(src, mask)
	if e.Data[5] != 0xAB || e.Data[4] != 0 {
		t.Fatal("masked write wrong bytes")
	}
	if !e.Dirty[5] || e.Dirty[4] {
		t.Fatal("dirty mask wrong")
	}
	e.ClearDirty()
	if e.Dirty[5] {
		t.Fatal("ClearDirty failed")
	}
}

func TestFlashInvalidate(t *testing.T) {
	a := NewArray(cfg64)
	for i := mem.Addr(0); i < 4; i++ {
		addr := i * 64
		a.Install(a.Victim(addr, nil), addr, int(i%2)) // states 0 and 1
	}
	kept := 0
	n := a.FlashInvalidate(func(l *Line) bool {
		if l.State == 1 {
			kept++
			return false
		}
		return true
	})
	if n != 2 || kept != 2 {
		t.Fatalf("flash invalidated %d, kept %d", n, kept)
	}
	if a.CountValid() != 2 {
		t.Fatalf("%d valid lines remain, want 2", a.CountValid())
	}
}

func TestInvalidate(t *testing.T) {
	a := NewArray(cfg64)
	a.Install(a.Victim(0x40, nil), 0x40, 1)
	a.Invalidate(0x40)
	if a.Peek(0x40) != nil {
		t.Fatal("line survives Invalidate")
	}
	a.Invalidate(0x9999) // no-op on absent lines
}

// TestNoAliasing: lines installed at distinct line addresses never
// collide in Lookup.
func TestNoAliasing(t *testing.T) {
	a := NewArray(Config{SizeBytes: 4096, LineSize: 64, Assoc: 4})
	installed := map[mem.Addr]bool{}
	for i := 0; i < 64; i++ {
		addr := mem.Addr(i * 64)
		v := a.Victim(addr, nil)
		if v.Valid {
			delete(installed, v.Tag)
		}
		a.Install(v, addr, 7)
		installed[addr] = true
		for tag := range installed {
			if got := a.Peek(tag); got == nil || got.Tag != tag {
				t.Fatalf("line %#x lost or aliased", uint64(tag))
			}
		}
	}
}

// scribble mutates a through every journaling access path: installs
// (evicting once sets fill), masked writes, hits and an invalidation.
func scribble(a *Array, k int) {
	for i := 0; i < 12; i++ {
		addr := mem.Addr((i*3 + k) * 64)
		l := a.Lookup(addr)
		if l == nil {
			l = a.Install(a.Victim(addr, nil), addr, k)
		}
		l.WriteMasked([]byte{byte(i + k), byte(k)}, []bool{true, i%2 == 0})
	}
	a.Invalidate(mem.Addr(k * 64))
}

// arrayState renders everything Restore must reinstate: every line's
// LRU stamp, and the tag, state, bytes and dirty mask of valid lines
// (invalid lines are never read, so their stale contents may differ).
func arrayState(a *Array) string {
	var b strings.Builder
	for _, l := range a.lines {
		fmt.Fprintf(&b, "%d:", l.lastUse)
		if l.Valid {
			fmt.Fprintf(&b, "%x/%d/%v/%v", l.Tag, l.State, l.Data, l.Dirty)
		}
		b.WriteByte(' ')
	}
	fmt.Fprint(&b, a.useClock, a.lookups, a.hits)
	return b.String()
}

// TestSnapshotReleaseReuse pins recycled snapshots: Snapshot after
// Release refills the released slabs without allocating, and restoring
// the reused snapshot — through the armed undo journal and through the
// full copy-back — reinstates exactly the state restoring a freshly
// allocated snapshot does. Clean and dirty snapshots are recycled into
// each other both ways.
func TestSnapshotReleaseReuse(t *testing.T) {
	a := NewArray(cfg64)
	scribble(a, 1)
	if n := testing.AllocsPerRun(100, func() { a.Release(a.Snapshot()) }); n != 0 {
		t.Fatalf("Snapshot after Release allocated %.0f times, want 0", n)
	}

	// run plays one scenario — first, an optional Snapshot+Release,
	// then second — and returns the states observed: at the measured
	// snapshot, after its armed restore, after its copy-back restore.
	run := func(recycle bool, first, second func(*Array)) []string {
		a := NewArray(cfg64)
		first(a)
		if recycle {
			a.Release(a.Snapshot())
		}
		second(a)
		s := a.Snapshot()
		got := []string{arrayState(a)}
		scribble(a, 3)
		a.Restore(s)
		got = append(got, arrayState(a))
		a.Snapshot()
		scribble(a, 4)
		a.Restore(s)
		return append(got, arrayState(a))
	}
	nop := func(*Array) {}
	write := func(k int) func(*Array) { return func(a *Array) { scribble(a, k) } }
	for _, c := range []struct {
		name          string
		first, second func(*Array)
	}{
		{"dirty-into-dirty", write(1), write(2)},
		{"clean-into-dirty", nop, write(2)},
		{"dirty-into-clean", write(1), (*Array).Reset},
	} {
		fresh, reused := run(false, c.first, c.second), run(true, c.first, c.second)
		for i, what := range []string{"snapshot", "armed restore", "copy-back restore"} {
			if reused[i] != fresh[i] {
				t.Fatalf("%s: %s state differs with a recycled snapshot", c.name, what)
			}
			if fresh[i] != fresh[0] {
				t.Fatalf("%s: %s did not reinstate the snapshot state", c.name, what)
			}
		}
	}
}
