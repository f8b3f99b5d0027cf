// Package replay provides the recorded-input substrate for deterministic
// re-execution.
//
// First-Aid "leverages a network proxy to record network messages during
// normal execution and replay them during re-execution" (§3). In the
// simulated machine a program consumes an ordered log of input events; the
// checkpoint manager saves the log cursor with each checkpoint, and a
// rollback rewinds the cursor so re-execution sees exactly the original
// inputs.
//
// Sequence numbers are absolute for the lifetime of a recording: Compact
// may discard a prefix of events (bounding memory under streaming
// supervision), but every surviving event keeps its original Seq, the
// cursor keeps its original meaning, and At(seq) keeps addressing the same
// event. Code that holds a cursor from a retained checkpoint never
// observes compaction.
package replay

import "fmt"

// Event is one recorded input: a request, a command, a message. Kind
// selects the program's handler; Data and N carry the payload.
type Event struct {
	Seq  int    // position in the log, assigned by Append
	Kind string // handler selector, e.g. "GET", "purge", "mail"
	Data string // payload (request body, file name, expression…)
	N    int    // numeric argument (sizes, counts)
}

func (e Event) String() string {
	return fmt.Sprintf("#%d %s(%q,%d)", e.Seq, e.Kind, e.Data, e.N)
}

// Log is an append-only event log with a replay cursor. A Log is built
// either up front by a workload generator or incrementally as "live"
// traffic arrives; consumption through Next never discards events, so any
// earlier cursor position can be replayed (until the owner explicitly
// Compacts a prefix it has proven unreachable).
type Log struct {
	events []Event
	cursor int // absolute: index of the next event to serve
	base   int // Seq of events[0]; >0 after Compact
	fence  int // visibility limit for Next/Peek, stored +1; 0 = none

	kinds map[string]string // AppendBatch: Kind strings deduplicated
	arena arena             // AppendBatch: Data strings, chunk-allocated
}

// NewLog returns an empty log. The zero value is also ready to use.
func NewLog() *Log { return &Log{} }

// Append records an event at the tail and returns its sequence number.
func (l *Log) Append(kind, data string, n int) int {
	seq := l.Len()
	l.events = append(l.events, Event{Seq: seq, Kind: kind, Data: data, N: n})
	return seq
}

// AppendEvent records ev at the tail, reassigning its sequence number to
// the tail position — the recorder primitive of streaming supervision:
// events arriving from a live source are stamped into the rolling log
// before execution, so every live run is replayable offline.
func (l *Log) AppendEvent(ev Event) int {
	ev.Seq = l.Len()
	l.events = append(l.events, ev)
	return ev.Seq
}

// visTail returns the absolute sequence bounding what Next/Peek may serve:
// the fence when one is set (and not beyond the tail), else the tail.
func (l *Log) visTail() int {
	tail := l.Len()
	if l.fence > 0 && l.fence-1 < tail {
		return l.fence - 1
	}
	return tail
}

// Next returns the event under the cursor and advances. ok is false when
// the visible log — bounded by the fence, if set — is exhausted.
func (l *Log) Next() (ev Event, ok bool) {
	if l.cursor >= l.visTail() {
		return Event{}, false
	}
	ev = l.events[l.cursor-l.base]
	l.cursor++
	return ev, true
}

// Peek returns the event under the cursor without advancing.
func (l *Log) Peek() (ev Event, ok bool) {
	if l.cursor >= l.visTail() {
		return Event{}, false
	}
	return l.events[l.cursor-l.base], true
}

// Cursor returns the replay position (the sequence of the next event).
func (l *Log) Cursor() int { return l.cursor }

// SetCursor rewinds (or advances) the replay position; rollback support.
// The cursor is clamped to the retained window: rewinding past a compacted
// prefix is impossible because those events no longer exist.
func (l *Log) SetCursor(c int) {
	if c < l.base {
		c = l.base
	}
	if c > l.Len() {
		c = l.Len()
	}
	l.cursor = c
}

// Len returns the total number of events ever recorded (the tail
// sequence). Compaction does not shrink Len; see Retained.
func (l *Log) Len() int { return l.base + len(l.events) }

// Base returns the sequence of the oldest retained event — 0 until the
// first Compact.
func (l *Log) Base() int { return l.base }

// Retained returns the number of events currently held in memory.
func (l *Log) Retained() int { return len(l.events) }

// SetFence caps the events Next and Peek will serve at absolute sequence
// seq, without hiding anything already recorded from At or Len. Batched
// ingest records a whole batch up front (record-before-execute must cover
// the full batch) and then advances the fence one event at a time, so
// recovery re-execution inside the batch sees exactly the log a serial
// ingest would have built — the tail it runs against is the fence, not the
// batch's end.
func (l *Log) SetFence(seq int) { l.fence = seq + 1 }

// ClearFence removes the visibility cap set by SetFence.
func (l *Log) ClearFence() { l.fence = 0 }

// Fence returns the current visibility cap, or -1 when none is set.
func (l *Log) Fence() int { return l.fence - 1 }

// Clone returns an independent log with the same visible events and
// cursor, for replaying on a forked machine without racing the original.
// Events beyond the fence are not visible to the clone and the clone
// carries no fence: a clone taken mid-batch is indistinguishable from one
// taken at the same point of a serial run.
//
// Cloning is O(1): the clone shares the parent's event array. Recorded
// slots are immutable — Append and AppendBatch only write past the tail,
// and Compact moves the survivors into a fresh array rather than sliding
// them in place — so the shared prefix never changes under a clone reading
// it on another goroutine. The clone's capacity is capped at its length,
// so its own first append reallocates instead of writing into the
// parent's array.
func (l *Log) Clone() *Log {
	vis := l.visTail() - l.base
	return &Log{
		events: l.events[:vis:vis],
		cursor: l.cursor,
		base:   l.base,
	}
}

// CatchUp appends the events src has recorded beyond this log's tail. A
// standby clone taken at checkpoint time replays a log frozen then; under
// streaming ingest the parent keeps recording, so the clone's log must be
// brought level before the clone can re-execute the failure window. Only
// src's visible tail is taken: events src has recorded but fenced off are
// not yet part of the observable recording. src must be a descendant of
// the same recording (the shared prefix is not re-checked).
//
// While this log is still a view of src's event array (src has neither
// reallocated nor compacted since the clone), catching up is a reslice;
// otherwise only the missing tail is copied.
func (l *Log) CatchUp(src *Log) {
	tail := src.visTail()
	if l.Len() >= tail {
		return
	}
	end := tail - src.base
	// l still views src's array when its first slot is src's slot for the
	// same sequence (src.events[off] exists: l is shorter than src).
	if off := l.base - src.base; off >= 0 && (len(l.events) == 0 || &l.events[0] == &src.events[off]) {
		l.events = src.events[off:end:end]
		return
	}
	l.events = append(l.events, src.events[l.Len()-src.base:end]...)
}

// At returns the event with absolute sequence seq. It panics if seq is
// outside the retained window [Base, Len).
func (l *Log) At(seq int) Event { return l.events[seq-l.base] }

// Compact discards every retained event with sequence < keep, freeing the
// prefix for garbage collection while preserving absolute sequence
// numbering for everything that survives. The cut is clamped so the
// cursor-addressed event (and everything after it) always survives.
// Callers are responsible for choosing keep ≤ the oldest cursor they may
// still rewind to — under supervision, the oldest retained checkpoint's
// cursor. Returns the number of events discarded.
func (l *Log) Compact(keep int) int {
	if keep > l.cursor {
		keep = l.cursor
	}
	n := keep - l.base
	if n <= 0 {
		return 0
	}
	// Move the survivors into a fresh array sized to them, never sliding
	// them down in place: clones may share the old array and still read
	// the discarded prefix. Re-slicing alone would pin the whole old array
	// (and the arena chunks behind its strings); once no clone references
	// it, the copy lets it be collected. Sizing from the retained length,
	// not the old capacity, keeps a long-running log's footprint flat.
	l.events = append([]Event(nil), l.events[n:]...)
	l.base = keep
	return n
}

// Footprint returns the payload bytes held by retained events (Kind and
// Data string lengths). It is an accounting aid for tests and telemetry —
// O(Retained) — not a precise heap measure.
func (l *Log) Footprint() int {
	total := 0
	for i := range l.events {
		total += len(l.events[i].Kind) + len(l.events[i].Data)
	}
	return total
}
