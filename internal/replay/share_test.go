package replay

import (
	"fmt"
	"sync"
	"testing"
)

// appendN records n events one by one, so the array grows by doubling
// and keeps spare capacity past the tail.
func appendN(l *Log, n int, tag string) {
	for i := 0; i < n; i++ {
		l.Append("req", fmt.Sprintf("%s-%d", tag, i), i)
	}
}

// snapshot copies the events of l in [from, to) by value, as the
// expectation a sharing clone must keep reproducing.
func snapshot(l *Log, from, to int) []Event {
	out := make([]Event, 0, to-from)
	for seq := from; seq < to; seq++ {
		out = append(out, l.At(seq))
	}
	return out
}

// replayAll drains c from its cursor and checks every served event, and
// every At lookup, against want (indexed from seq want[0].Seq).
func replayAll(t *testing.T, c *Log, want []Event) {
	t.Helper()
	base := want[0].Seq
	for seq := base; seq < base+len(want); seq++ {
		if got := c.At(seq); got != want[seq-base] {
			t.Errorf("At(%d) = %v, want %v", seq, got, want[seq-base])
			return
		}
	}
	for {
		ev, ok := c.Next()
		if !ok {
			break
		}
		if ev != want[ev.Seq-base] {
			t.Errorf("Next = %v, want %v", ev, want[ev.Seq-base])
			return
		}
	}
	if c.Cursor() != base+len(want) {
		t.Errorf("clone drained to %d, want %d", c.Cursor(), base+len(want))
	}
}

// TestCloneStableWhileParentGrowsAndCompacts reads a clone on its own
// goroutine while the parent keeps recording — first into the spare
// capacity of the shared array, then past it — and, with a second clone
// sharing the grown array, while the parent compacts. Run under -race: the
// parent may only ever write slots its clones cannot see.
func TestCloneStableWhileParentGrowsAndCompacts(t *testing.T) {
	parent := NewLog()
	appendN(parent, 100, "p")
	readWhile := func(mutate func()) {
		t.Helper()
		if cap(parent.events) == len(parent.events) {
			t.Fatal("test needs spare capacity in the shared array")
		}
		want := snapshot(parent, parent.Base(), parent.Len())
		clone := parent.Clone()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				clone.SetCursor(0)
				replayAll(t, clone, want)
			}
		}()
		mutate()
		wg.Wait()
		if clone.Len() != want[0].Seq+len(want) {
			t.Fatalf("clone length moved to %d", clone.Len())
		}
	}
	readWhile(func() {
		for i := 0; i < 200; i++ {
			if i%2 == 0 {
				parent.Append("req", "tail", i)
			} else {
				parent.AppendBatch(batchOf(3, "b"))
			}
		}
	})
	readWhile(func() {
		for i := 0; i < 20; i++ {
			parent.SetCursor(parent.Len())
			parent.Compact(parent.Len() - 10)
			parent.AppendBatch(batchOf(5, "c"))
		}
	})
}

// TestCloneTakenBeforeCompactReplaysIdentically: Compact must not slide
// survivors through an array a clone still reads.
func TestCloneTakenBeforeCompactReplaysIdentically(t *testing.T) {
	parent := NewLog()
	parent.AppendBatch(batchOf(64, "c"))
	parent.SetCursor(10)
	want := snapshot(parent, 0, parent.Len())
	clone := parent.Clone()

	parent.SetCursor(60)
	if n := parent.Compact(50); n != 50 {
		t.Fatalf("compacted %d, want 50", n)
	}
	parent.AppendBatch(batchOf(8, "z"))
	if clone.Base() != 0 || clone.Cursor() != 10 {
		t.Fatalf("clone base=%d cursor=%d", clone.Base(), clone.Cursor())
	}
	clone.SetCursor(0)
	replayAll(t, clone, want)
}

// TestCompactSizesFromRetained: compaction copies into an array sized to
// the survivors, not to the grown capacity of the old one.
func TestCompactSizesFromRetained(t *testing.T) {
	l := NewLog()
	for i := 0; i < 100000; i++ {
		l.Append("req", "", i)
	}
	l.SetCursor(l.Len())
	l.Compact(l.Len() - 100)
	if l.Retained() != 100 || cap(l.events) > 200 {
		t.Fatalf("retained %d events in an array of capacity %d", l.Retained(), cap(l.events))
	}
	if got := l.At(l.Len() - 1); got.N != 99999 {
		t.Fatalf("tail after compact = %v", got)
	}
}

// TestCatchUpSharedAndReallocated covers both CatchUp paths: a reslice of
// the parent's array while the clone still views it, and a tail copy once
// the parent has reallocated or compacted.
func TestCatchUpSharedAndReallocated(t *testing.T) {
	parent := NewLog()
	appendN(parent, 10, "s")
	spare := cap(parent.events) - len(parent.events)
	if spare < 2 {
		t.Fatal("test needs spare capacity in the shared array")
	}
	clone := parent.Clone()

	// Shared: the parent records into its spare capacity.
	parent.Append("req", "in-place", 0)
	clone.CatchUp(parent)
	if &clone.events[0] != &parent.events[0] {
		t.Fatal("catch-up on a shared array copied instead of reslicing")
	}
	if n := testing.AllocsPerRun(10, func() { clone.CatchUp(parent) }); n != 0 {
		t.Fatalf("no-op catch-up allocated %.0f times", n)
	}
	if cap(clone.events) != len(clone.events) {
		t.Fatal("caught-up clone may write into the parent's array")
	}
	replayAll(t, clone, snapshot(parent, 0, parent.Len()))

	// Reallocated: the parent grows past its capacity.
	for i := 0; i <= spare; i++ {
		parent.Append("req", "grown", i)
	}
	parent.AppendBatch(batchOf(50, "g"))
	clone.CatchUp(parent)
	if &clone.events[0] == &parent.events[0] {
		t.Fatal("parent reallocated but the clone still views the new array")
	}
	clone.SetCursor(0)
	replayAll(t, clone, snapshot(parent, 0, parent.Len()))

	// Compacted: the parent's base moved past the clone's.
	parent.SetCursor(parent.Len())
	parent.Compact(parent.Len() - 5)
	parent.AppendBatch(batchOf(7, "k"))
	clone.CatchUp(parent)
	if clone.Base() != 0 || clone.Len() != parent.Len() {
		t.Fatalf("clone base=%d len=%d, parent len=%d", clone.Base(), clone.Len(), parent.Len())
	}
	for seq := parent.Base(); seq < parent.Len(); seq++ {
		if clone.At(seq) != parent.At(seq) {
			t.Fatalf("At(%d) diverges: %v vs %v", seq, clone.At(seq), parent.At(seq))
		}
	}

	// An empty clone views no array yet: catching up reslices.
	empty := NewLog()
	early := empty.Clone()
	empty.AppendBatch(batchOf(4, "e"))
	early.CatchUp(empty)
	if early.Len() != 4 || &early.events[0] != &empty.events[0] {
		t.Fatalf("empty clone caught up to %d without sharing", early.Len())
	}
}

// TestCloneMidBatchCarriesNoFenceAndAppendsPrivately: a clone taken while
// a batch is fenced ends at the fence, carries no fence, and its own
// appends land in a private array — never over the parent's recorded but
// fenced-off events that share the array past the clone's length.
func TestCloneMidBatchCarriesNoFenceAndAppendsPrivately(t *testing.T) {
	parent := NewLog()
	parent.AppendBatch(batchOf(8, "m"))
	parent.SetFence(3)
	recorded := snapshot(parent, 0, parent.Len())
	clone := parent.Clone()
	if clone.Fence() != -1 || clone.Len() != 3 {
		t.Fatalf("mid-batch clone fence=%d len=%d", clone.Fence(), clone.Len())
	}
	if seq := clone.Append("probe", "private", 0); seq != 3 {
		t.Fatalf("clone append seq %d, want 3", seq)
	}
	clone.AppendBatch(batchOf(2, "x"))
	for seq := 0; seq < parent.Len(); seq++ {
		if parent.At(seq) != recorded[seq] {
			t.Fatalf("clone append rewrote parent event %d: %v", seq, parent.At(seq))
		}
	}
	if clone.At(3).Kind != "probe" || clone.At(4).Data != "x-0" {
		t.Fatalf("clone tail = %v %v", clone.At(3), clone.At(4))
	}
}
