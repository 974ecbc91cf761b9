package core

import (
	"fmt"
	"time"
)

// Trail is an ordered list of related footprints — the per-session,
// per-protocol grouping of paper Section 3.1. Cross-protocol detection
// keeps multiple trails per session (a SIP trail, an RTP trail, an
// accounting trail) under the same session key.
type Trail struct {
	// Session is the correlation key shared by all trails of one session.
	Session string
	// Protocol is the single protocol this trail carries.
	Protocol Protocol

	// entries is a contiguous slab of value-typed frame views. It grows
	// until the trail's bound, then becomes a ring: head indexes the
	// oldest entry and appends overwrite in place, so a saturated trail
	// (the steady state of a long media stream) retains footprints with
	// zero per-frame allocation and zero copying.
	entries []FrameView
	head    int
	maxLen  int
	// restored counts footprints that existed before a checkpoint restore.
	// Their bytes are deliberately not checkpointed (the event layer never
	// rereads trail contents); only the length survives, so Len and the
	// eviction bound behave as if they were still present.
	restored int
}

// AppendView adds a copy of the frame view, evicting the oldest entry
// when the trail exceeds its bound (memory is the practical limit the
// paper notes). Restored phantom entries are older than every real one,
// so they evict first.
func (t *Trail) AppendView(v *FrameView) {
	if t.maxLen <= 0 || t.restored+len(t.entries) < t.maxLen {
		t.entries = append(t.entries, *v)
		return
	}
	if t.restored > 0 {
		t.restored--
		t.entries = append(t.entries, *v)
		return
	}
	// Saturated: overwrite the oldest slot in place.
	t.entries[t.head] = *v
	t.head++
	if t.head == len(t.entries) {
		t.head = 0
	}
}

// Len returns the number of retained footprints (including restored
// phantom entries whose bytes were dropped at the last checkpoint).
func (t *Trail) Len() int { return t.restored + len(t.entries) }

// eachView calls fn on every retained entry in arrival order, stopping
// early when fn returns false. This is the allocation-free read path; the
// Footprint-returning accessors below box on demand.
func (t *Trail) eachView(fn func(v *FrameView) bool) {
	n := len(t.entries)
	for i := 0; i < n; i++ {
		j := t.head + i
		if j >= n {
			j -= n
		}
		if !fn(&t.entries[j]) {
			return
		}
	}
}

// Footprints returns the retained footprints in arrival order, boxed.
// This is a materializing (slow-path) accessor for reports, tests and the
// direct-matching ablation; the detection hot path never calls it.
func (t *Trail) Footprints() []Footprint {
	if len(t.entries) == 0 {
		return nil
	}
	out := make([]Footprint, 0, len(t.entries))
	t.eachView(func(v *FrameView) bool {
		out = append(out, v.box())
		return true
	})
	return out
}

// Last returns the most recent footprint, boxed, or nil.
func (t *Trail) Last() Footprint {
	n := len(t.entries)
	if n == 0 {
		return nil
	}
	j := t.head - 1
	if j < 0 {
		j = n - 1
	}
	return t.entries[j].box()
}

// Since returns the footprints observed strictly after cutoff, boxed.
func (t *Trail) Since(cutoff time.Duration) []Footprint {
	// Entries arrive in time order: count the suffix newer than cutoff
	// from the back, then box it in order.
	n := len(t.entries)
	keep := 0
	for keep < n {
		j := t.head - 1 - keep
		if j < 0 {
			j += n
		}
		if t.entries[j].At <= cutoff {
			break
		}
		keep++
	}
	if keep == 0 {
		return nil
	}
	out := make([]Footprint, 0, keep)
	for i := keep; i > 0; i-- {
		j := t.head - i
		if j < 0 {
			j += n
		}
		out = append(out, t.entries[j].box())
	}
	return out
}

// trailKey identifies one trail in the store.
type trailKey struct {
	session string
	proto   Protocol
}

// TrailStore holds all live trails indexed by session and protocol.
type TrailStore struct {
	trails map[trailKey]*Trail
	// MaxTrailLen bounds each trail's retained footprints (0 = unbounded).
	MaxTrailLen int
}

// NewTrailStore returns an empty store. maxTrailLen bounds per-trail
// memory (0 = unbounded).
func NewTrailStore(maxTrailLen int) *TrailStore {
	return &TrailStore{trails: make(map[trailKey]*Trail), MaxTrailLen: maxTrailLen}
}

// Get returns the trail for (session, proto), creating it if needed.
func (s *TrailStore) Get(session string, proto Protocol) *Trail {
	k := trailKey{session: session, proto: proto}
	t, ok := s.trails[k]
	if !ok {
		t = &Trail{Session: session, Protocol: proto, maxLen: s.MaxTrailLen}
		s.trails[k] = t
	}
	return t
}

// Lookup returns the trail for (session, proto) or nil, without creating.
func (s *TrailStore) Lookup(session string, proto Protocol) *Trail {
	return s.trails[trailKey{session: session, proto: proto}]
}

// SessionTrails returns every trail of a session (one per protocol seen).
func (s *TrailStore) SessionTrails(session string) []*Trail {
	var out []*Trail
	for _, proto := range []Protocol{ProtoSIP, ProtoRTP, ProtoRTCP, ProtoAccounting, ProtoOther} {
		if t := s.Lookup(session, proto); t != nil {
			out = append(out, t)
		}
	}
	return out
}

// Sessions returns the number of distinct sessions with live trails.
func (s *TrailStore) Sessions() int {
	seen := make(map[string]struct{}, len(s.trails))
	for k := range s.trails {
		seen[k.session] = struct{}{}
	}
	return len(seen)
}

// Trails returns the total number of live trails.
func (s *TrailStore) Trails() int { return len(s.trails) }

// Drop removes all trails of a session (e.g. long after teardown).
func (s *TrailStore) Drop(session string) {
	for _, proto := range []Protocol{ProtoSIP, ProtoRTP, ProtoRTCP, ProtoAccounting, ProtoOther} {
		delete(s.trails, trailKey{session: session, proto: proto})
	}
}

// String summarizes the store for logs.
func (s *TrailStore) String() string {
	return fmt.Sprintf("TrailStore{sessions=%d trails=%d}", s.Sessions(), s.Trails())
}
