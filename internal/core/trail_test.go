package core

import (
	"testing"
	"time"
)

func rtpFp(at time.Duration) *FrameView {
	return &FrameView{Proto: ProtoRTP, At: at}
}

func TestTrailAppendAndOrder(t *testing.T) {
	s := NewTrailStore(0)
	tr := s.Get("call-1", ProtoRTP)
	for i := 0; i < 10; i++ {
		tr.AppendView(rtpFp(time.Duration(i) * time.Millisecond))
	}
	if tr.Len() != 10 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.Last().Time() != 9*time.Millisecond {
		t.Errorf("Last at %v", tr.Last().Time())
	}
	fps := tr.Footprints()
	for i := 1; i < len(fps); i++ {
		if fps[i].Time() < fps[i-1].Time() {
			t.Fatal("footprints out of order")
		}
	}
}

func TestTrailBounded(t *testing.T) {
	s := NewTrailStore(5)
	tr := s.Get("call-1", ProtoRTP)
	for i := 0; i < 20; i++ {
		tr.AppendView(rtpFp(time.Duration(i) * time.Millisecond))
	}
	if tr.Len() != 5 {
		t.Fatalf("bounded trail Len = %d, want 5", tr.Len())
	}
	// The retained footprints are the most recent.
	if got := tr.Footprints()[0].Time(); got != 15*time.Millisecond {
		t.Errorf("oldest retained = %v, want 15ms", got)
	}
}

func TestTrailSince(t *testing.T) {
	s := NewTrailStore(0)
	tr := s.Get("c", ProtoRTP)
	for i := 0; i < 10; i++ {
		tr.AppendView(rtpFp(time.Duration(i) * time.Second))
	}
	got := tr.Since(6 * time.Second)
	if len(got) != 3 {
		t.Fatalf("Since(6s) = %d footprints, want 3 (7,8,9)", len(got))
	}
	if got[0].Time() != 7*time.Second {
		t.Errorf("first = %v", got[0].Time())
	}
	if n := len(tr.Since(100 * time.Second)); n != 0 {
		t.Errorf("Since(100s) = %d", n)
	}
	if n := len(tr.Since(-time.Second)); n != 10 {
		t.Errorf("Since(-1s) = %d", n)
	}
}

func TestTrailStoreSessionGrouping(t *testing.T) {
	s := NewTrailStore(0)
	s.Get("call-1", ProtoSIP).AppendView(rtpFp(0))
	s.Get("call-1", ProtoRTP).AppendView(rtpFp(0))
	s.Get("call-1", ProtoAccounting).AppendView(rtpFp(0))
	s.Get("call-2", ProtoSIP).AppendView(rtpFp(0))
	if s.Sessions() != 2 {
		t.Errorf("Sessions = %d", s.Sessions())
	}
	if s.Trails() != 4 {
		t.Errorf("Trails = %d", s.Trails())
	}
	trails := s.SessionTrails("call-1")
	if len(trails) != 3 {
		t.Fatalf("SessionTrails = %d, want 3", len(trails))
	}
	if s.Lookup("call-1", ProtoRTCP) != nil {
		t.Error("Lookup invented a trail")
	}
	s.Drop("call-1")
	if s.Trails() != 1 || s.Sessions() != 1 {
		t.Errorf("after Drop: %v", s)
	}
}

func TestTrailEmptyLast(t *testing.T) {
	s := NewTrailStore(0)
	if s.Get("x", ProtoSIP).Last() != nil {
		t.Error("empty trail Last != nil")
	}
}

func TestProtocolString(t *testing.T) {
	want := map[Protocol]string{
		ProtoSIP: "SIP", ProtoRTP: "RTP", ProtoRTCP: "RTCP",
		ProtoAccounting: "ACCT", ProtoOther: "OTHER", Protocol(0): "UNKNOWN",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), s)
		}
	}
}
