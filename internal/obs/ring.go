package obs

import (
	"encoding/json"
	"fmt"

	"basevictim/internal/atomicio"
)

// Event is one structured cache decision. Kind names the decision
// (fill, base-evict, victim-retain, victim-reject, victim-promote,
// back-inval, ...); Reason qualifies it when one kind has several
// causes (e.g. a victim dropped for "partner-grow" vs "displaced").
// Seq is assigned by the ring in record order, so a flushed trace is
// a causal history even after wraparound.
type Event struct {
	Seq    uint64 `json:"seq"`
	Kind   string `json:"kind"`
	Addr   uint64 `json:"addr"`
	Set    int    `json:"set"`
	Way    int    `json:"way"`
	Segs   int    `json:"segs,omitempty"`
	Reason string `json:"reason,omitempty"`
	Dirty  bool   `json:"dirty,omitempty"`
}

// Bounded is a fixed-capacity buffer of the most recent values: once
// full, each Push overwrites the oldest. A zero-capacity Bounded
// discards everything without counting it. It is not synchronized;
// owners that share one across goroutines guard it themselves.
type Bounded[T any] struct {
	buf  []T
	next uint64 // total values ever pushed
}

// NewBounded builds a buffer retaining the last capacity values. A
// non-positive capacity yields a discarding buffer.
func NewBounded[T any](capacity int) Bounded[T] {
	if capacity <= 0 {
		return Bounded[T]{}
	}
	return Bounded[T]{buf: make([]T, 0, capacity)}
}

// Push appends v, reporting whether a retained value was overwritten
// to make room.
func (b *Bounded[T]) Push(v T) (evicted bool) {
	if cap(b.buf) == 0 {
		return false
	}
	if len(b.buf) < cap(b.buf) {
		b.buf = append(b.buf, v)
	} else {
		b.buf[b.next%uint64(cap(b.buf))] = v
		evicted = true
	}
	b.next++
	return evicted
}

// Len returns the number of values currently retained.
func (b *Bounded[T]) Len() int { return len(b.buf) }

// Total returns the number of values ever pushed; it is also the
// sequence number the next Push will occupy.
func (b *Bounded[T]) Total() uint64 { return b.next }

// Dropped returns how many values were overwritten.
func (b *Bounded[T]) Dropped() uint64 { return b.next - uint64(len(b.buf)) }

// Items returns the retained values oldest-first, or nil when empty.
func (b *Bounded[T]) Items() []T {
	if len(b.buf) == 0 {
		return nil
	}
	out := make([]T, 0, len(b.buf))
	if len(b.buf) < cap(b.buf) {
		return append(out, b.buf...)
	}
	start := b.next % uint64(cap(b.buf))
	out = append(out, b.buf[start:]...)
	return append(out, b.buf[:start]...)
}

// WriteJSONL writes header and then each line, one JSON object per
// line, to path via an atomic write-temp-fsync-rename, so a crash
// mid-export never leaves a truncated file.
func WriteJSONL[T any](path string, header any, lines []T) error {
	f, err := atomicio.Create(path, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	if err := enc.Encode(header); err != nil {
		return fmt.Errorf("obs: encode jsonl header: %w", err)
	}
	for i, l := range lines {
		if err := enc.Encode(l); err != nil {
			return fmt.Errorf("obs: encode jsonl line %d: %w", i+1, err)
		}
	}
	return f.Commit()
}

// Ring is a bounded buffer of the most recent decision events. When
// full, the oldest events are overwritten; Dropped reports how many
// were lost. The zero-capacity and nil rings discard everything, so
// instrumentation can call Record unconditionally.
//
// Like Registry, a Ring belongs to the run's single goroutine.
type Ring struct {
	b Bounded[Event]
}

// NewRing builds a ring holding the last capacity events. A
// non-positive capacity yields a discarding ring.
func NewRing(capacity int) *Ring {
	return &Ring{b: NewBounded[Event](capacity)}
}

// Record appends one event, overwriting the oldest if full. The
// event's Seq field is overwritten with the ring's sequence number.
func (r *Ring) Record(e Event) {
	if r == nil {
		return
	}
	e.Seq = r.b.Total()
	r.b.Push(e)
}

// Len returns the number of events currently held.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	return r.b.Len()
}

// Total returns the number of events ever recorded.
func (r *Ring) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.b.Total()
}

// Dropped returns how many events were overwritten.
func (r *Ring) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.b.Dropped()
}

// Events returns the retained events oldest-first.
func (r *Ring) Events() []Event {
	if r == nil {
		return nil
	}
	return r.b.Items()
}

// WriteJSONL flushes the retained events, oldest-first, to path as one
// JSON object per line (see the package-level WriteJSONL). A header
// line records totals so forensics can tell how much history was lost.
func (r *Ring) WriteJSONL(path string) error {
	type header struct {
		Kind     string `json:"kind"`
		Total    uint64 `json:"total"`
		Retained int    `json:"retained"`
		Dropped  uint64 `json:"dropped"`
	}
	return WriteJSONL(path, header{Kind: "ring-header", Total: r.Total(), Retained: r.Len(), Dropped: r.Dropped()}, r.Events())
}
