package otrace

import (
	"fmt"
	"sync"
	"time"

	"basevictim/internal/obs"
)

// Rec is one completed node-local trace: every span this peer recorded
// for one trace ID, in stable (StartUS, ID) order. The cross-peer tree
// is the union of each peer's Rec for the same trace ID.
type Rec struct {
	Trace   string    `json:"trace"`
	Peer    string    `json:"peer"`
	Root    string    `json:"root"`
	Status  string    `json:"status"`
	StartUS int64     `json:"start_us"`
	DurUS   int64     `json:"dur_us"`
	Spans   []SpanRec `json:"spans"`
}

// Recorder is the flight recorder: a bounded ring of the most recent
// completed traces, an obs.Bounded guarded by a mutex because requests
// complete concurrently. A nil recorder discards everything.
type Recorder struct {
	mu   sync.Mutex
	ring obs.Bounded[Rec]
}

// NewRecorder builds a recorder retaining the last capacity traces. A
// non-positive capacity yields a discarding recorder.
func NewRecorder(capacity int) *Recorder {
	return &Recorder{ring: obs.NewBounded[Rec](capacity)}
}

// add records one completed trace, reporting whether a retained trace
// was evicted to make room.
func (r *Recorder) add(rec Rec) (evicted bool) {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Push(rec)
}

// Total returns the number of traces ever recorded.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Total()
}

// Evicted returns how many retained traces were overwritten.
func (r *Recorder) Evicted() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Dropped()
}

// Filter selects traces from the recorder. The zero filter matches
// everything.
type Filter struct {
	// Status keeps only traces whose root status equals it ("" = any).
	Status string
	// MinDur keeps only traces at least this long.
	MinDur time.Duration
	// Trace keeps only the trace with this exact ID ("" = any).
	Trace string
	// Limit caps the result count (0 = unlimited).
	Limit int
}

// Traces returns matching retained traces, newest-first — the order a
// human debugging "what just happened" wants.
func (r *Recorder) Traces(f Filter) []Rec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	recs := r.ring.Items()
	r.mu.Unlock()
	minUS := f.MinDur.Microseconds()
	var out []Rec
	for i := len(recs) - 1; i >= 0; i-- {
		rec := recs[i]
		if f.Status != "" && rec.Status != f.Status {
			continue
		}
		if rec.DurUS < minUS {
			continue
		}
		if f.Trace != "" && rec.Trace != f.Trace {
			continue
		}
		out = append(out, rec)
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}

// WriteJSONL exports the retained traces, oldest-first, to path as one
// JSON object per line via obs.WriteJSONL's atomic write. The first
// line is a self-describing header (schema v1); each following line is
// {"kind":"trace", ...Rec}. The schema is stable: CI parses it.
func (r *Recorder) WriteJSONL(path, peer string) error {
	if r == nil {
		return fmt.Errorf("otrace: nil recorder has nothing to export")
	}
	r.mu.Lock()
	recs := r.ring.Items()
	total, evicted := r.ring.Total(), r.ring.Dropped()
	r.mu.Unlock()

	type header struct {
		Kind     string `json:"kind"`
		V        int    `json:"v"`
		Peer     string `json:"peer"`
		Total    uint64 `json:"total"`
		Retained int    `json:"retained"`
		Evicted  uint64 `json:"evicted"`
	}
	type line struct {
		Kind string `json:"kind"`
		Rec
	}
	lines := make([]line, len(recs))
	for i, rec := range recs {
		lines[i] = line{Kind: "trace", Rec: rec}
	}
	return obs.WriteJSONL(path, header{Kind: "otrace-header", V: 1, Peer: peer, Total: total, Retained: len(recs), Evicted: evicted}, lines)
}
