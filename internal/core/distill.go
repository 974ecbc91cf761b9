package core

import (
	"fmt"
	"net/netip"
	"strconv"
	"time"

	"scidive/internal/packet"
	"scidive/internal/sip"
)

// DistillerStats counts distillation activity. Every input — each frame
// plus each stream-extracted message — lands in exactly one terminal
// counter, the never-silently-dropped ledger the hostile-input tests
// check:
//
//	Frames + StreamMsgs == DecodeError + Fragments + Ignored + Streamed
//	                     + SIP + RTP + RTCP + Acct + Raw + Mismatched
type DistillerStats struct {
	Frames      int
	Fragments   int // IP fragments buffered toward reassembly
	DecodeError int // frames undecodable at the IP/UDP layer
	SIP         int
	RTP         int
	RTCP        int
	Acct        int
	Raw         int // VoIP-port traffic that failed protocol decode
	Ignored     int // traffic outside the monitored port set
	Mismatched  int // frames reclassified by content confirmation (classify.go)
	Streamed    int // TCP segments accepted into the stream arm (terminal for the segment)
	StreamMsgs  int // stream-extracted messages distilled (each lands in SIP/RTP/RTCP/Raw/Mismatched)
}

// Distiller translates raw frames into Footprints: Ethernet and IPv4
// decoding, fragment reassembly, UDP demultiplexing, and protocol
// classification (paper Section 3.1).
type Distiller struct {
	reasm *packet.Reassembler
	stats DistillerStats

	// claimers is the correlator set whose port claims drive protocol
	// classification (first claim in registry order wins).
	claimers []Correlator

	// parser is the distiller-owned SIP parser: one per pipeline keeps
	// its intern table warm across every message the pipeline sees.
	parser *sip.Parser

	// frags mirrors in-progress fragment groups exactly as the sharded
	// router does, so a serial-written portable checkpoint carries
	// everything a sharded restore needs to ship completed groups to
	// their shards. nil on standalone and shard-local distillers (only the
	// serial engine's own distiller mirrors; shards receive
	// already-grouped frames).
	frags fragMirror

	// streams is the stream-transport demux (TCP reassembly + SIP message
	// framing). Datagram transports yield one message per payload through
	// decodeUDP as always; stream transports land zero or more complete
	// messages per frame on the mux queue, drained by NextStreamMessage.
	// nil on shard-local distillers: the sharded router owns the only
	// stream state and ships extracted messages (see sharded.go).
	streams *streamMux

	// ladder is the content-confirmation reclassification ladder derived
	// from the same correlator set as the port claims (classify.go), run
	// when a claimed protocol's decoder rejects the payload.
	ladder classifyLadder
}

// defaultMediaPortFloor is the lowest UDP port treated as media traffic
// by the rtp and rtcp correlators' port claims.
const defaultMediaPortFloor = 10000

// NewDistiller returns a Distiller classifying ports against the default
// correlator registry.
func NewDistiller() *Distiller {
	return NewDistillerFor(buildCorrelators(nil, GenConfig{}.withDefaults()))
}

// NewDistillerFor returns a Distiller whose port classification derives
// from the given correlators' port claims. NewEngine shares one
// correlator set between its distiller and its generator so the two can
// never disagree about a port's protocol.
func NewDistillerFor(correlators []Correlator) *Distiller {
	return &Distiller{
		reasm:    packet.NewReassembler(0),
		claimers: correlators,
		parser:   sip.NewParser(),
		ladder:   ladderOf(correlators),
	}
}

// Stats returns a snapshot of the distiller counters.
func (d *Distiller) Stats() DistillerStats { return d.stats }

// decodeUDP runs the protocol-independent prelude of DistillView:
// Ethernet, IPv4, reassembly, and zero-copy UDP validation. It returns
// ok=false (with stats counted) when the frame produces no footprint,
// and otherwise the claimed protocol and UDP payload.
func (d *Distiller) decodeUDP(at time.Duration, frame []byte) (proto Protocol, src, dst netip.AddrPort, payload []byte, ok bool) {
	d.stats.Frames++
	ef, err := packet.UnmarshalEthernet(frame)
	if err != nil || ef.Type != packet.EtherTypeIPv4 {
		d.stats.DecodeError++
		return 0, src, dst, nil, false
	}
	iph, ipPayload, err := packet.UnmarshalIPv4(ef.Payload)
	if err != nil {
		d.stats.DecodeError++
		return 0, src, dst, nil, false
	}
	if d.frags != nil && (iph.FragOffset != 0 || iph.MoreFragments()) {
		// The mirror retains fragments, and capture.Replay (like other
		// feeders) reuses the frame buffer after this call returns.
		frame = append([]byte(nil), frame...)
	}
	ipBody, _, done, err := d.frags.insert(d.reasm, &iph, ipPayload, at, frame)
	if err != nil {
		d.stats.DecodeError++
		return 0, src, dst, nil, false
	}
	if !done {
		d.stats.Fragments++
		return 0, src, dst, nil, false
	}
	if iph.Protocol == packet.ProtoTCP {
		d.streamFrame(at, iph.Src, iph.Dst, ipBody)
		return 0, src, dst, nil, false
	}
	if iph.Protocol != packet.ProtoUDP {
		d.stats.Ignored++
		return 0, src, dst, nil, false
	}
	uh, udpPayload, err := packet.PeekUDP(iph.Src, iph.Dst, ipBody)
	if err != nil {
		d.stats.DecodeError++
		return 0, src, dst, nil, false
	}
	proto, claimed := claimPortOf(d.claimers, uh.SrcPort, uh.DstPort)
	if !claimed || !decodable(proto) {
		d.stats.Ignored++
		return 0, src, dst, nil, false
	}
	src = netip.AddrPortFrom(iph.Src, uh.SrcPort)
	dst = netip.AddrPortFrom(iph.Dst, uh.DstPort)
	return proto, src, dst, udpPayload, true
}

// streamFrame is the stream-transport arm of the demux: it validates the
// TCP segment, checks the port claim (only SIP is carried over streams
// here), and feeds the segment through the mux. Complete messages land on
// the mux queue; the frame itself produces no immediate footprint.
func (d *Distiller) streamFrame(at time.Duration, srcIP, dstIP netip.Addr, seg []byte) {
	if d.streams == nil {
		d.stats.Ignored++
		return
	}
	th, payload, err := packet.PeekTCP(srcIP, dstIP, seg)
	if err != nil {
		d.stats.DecodeError++
		return
	}
	proto, claimed := claimPortOf(d.claimers, th.SrcPort, th.DstPort)
	if !claimed || proto != ProtoSIP {
		d.stats.Ignored++
		return
	}
	d.stats.Streamed++
	src := netip.AddrPortFrom(srcIP, th.SrcPort)
	dst := netip.AddrPortFrom(dstIP, th.DstPort)
	d.streams.push(at, src, dst, th, payload)
}

// NextStreamMessage pops the next stream-extracted SIP message into v,
// reporting false when none are pending. Parsing, validation and stats
// agree with the datagram SIP arm of DistillView bit for bit; the view
// additionally carries the flow's routing key (StreamKey) so the serial
// engine pins the same sticky key the sharded router would.
func (d *Distiller) NextStreamMessage(v *FrameView) bool {
	if d.streams == nil {
		return false
	}
	msg, ok := d.streams.next()
	if !ok {
		return false
	}
	d.distillStreamMessage(msg.at, msg.src, msg.dst, msg.payload, msg.kind, v)
	return true
}

// distillStreamMessage fills v from one stream-extracted message. Shared
// by the serial drain above and the shard-side processing of
// router-shipped messages (both must count stats exactly as the datagram
// path does). Framed messages go through the shared classifier as
// SIP-claimed payloads; tunnel chunks (media content sniffed on the
// SIP-claimed stream) skip the SIP decoder and run only the ladder.
func (d *Distiller) distillStreamMessage(at time.Duration, src, dst netip.AddrPort, payload []byte, kind streamKind, v *FrameView) {
	d.stats.StreamMsgs++
	v.reset()
	v.At, v.Src, v.Dst = at, src, dst
	v.StreamKey = streamFlowKey(src, dst)
	sink := sipSink{parser: d.parser}
	if kind == streamKindTunnel {
		d.count(v, classifyTunnel(d.ladder, payload, sink, v))
		return
	}
	d.count(v, classifyPayload(d.ladder, ProtoSIP, payload, sink, v))
}

// DistillView decodes one frame observed at the given virtual time into
// the caller-owned view, reporting whether the frame produced a
// footprint (false for non-final fragments, frames undecodable below
// UDP, and traffic outside the monitored ports). Media frames (RTP/RTCP)
// are projected through the rtp package's peek decoders and never
// materialize packet structs; SIP frames allocate one Message (trails
// retain it — the documented per-SIP-frame budget).
func (d *Distiller) DistillView(at time.Duration, frame []byte, v *FrameView) bool {
	v.reset()
	proto, src, dst, payload, ok := d.decodeUDP(at, frame)
	if !ok {
		return false
	}
	v.At, v.Src, v.Dst = at, src, dst
	d.count(v, classifyPayload(d.ladder, proto, payload, sipSink{parser: d.parser}, v))
	return true
}

// count books a classified view in the ledger and finishes it: a raw
// view records its reason, and a SIP view gets the strict format checks.
func (d *Distiller) count(v *FrameView, rawReason error) {
	switch {
	case v.Proto == ProtoOther:
		d.stats.Raw++
		v.Reason = rawReason.Error()
		return
	case v.PortProto != 0:
		d.stats.Mismatched++
	case v.Proto == ProtoSIP:
		d.stats.SIP++
	case v.Proto == ProtoRTP:
		d.stats.RTP++
	case v.Proto == ProtoRTCP:
		d.stats.RTCP++
	case v.Proto == ProtoAccounting:
		d.stats.Acct++
	}
	if v.Proto == ProtoSIP {
		v.Malformed = CheckSIPFormat(v.Msg)
	}
}

// CheckSIPFormat applies the strict well-formedness checks the IDS uses
// beyond baseline parseability. It returns a list of violations; an empty
// list means the message is clean. These catch "carefully crafted"
// messages that lenient implementations (like the simulated proxy)
// process anyway — the Section 3.2 exploit vector.
func CheckSIPFormat(m *sip.Message) []string {
	var violations []string
	for _, hdr := range []string{sip.HdrFrom, sip.HdrTo, sip.HdrCallID, sip.HdrCSeq} {
		if n := m.Headers.Count(hdr); n > 1 {
			violations = append(violations, fmt.Sprintf("duplicate %s header (%d occurrences)", hdr, n))
		}
	}
	if m.IsRequest() {
		if mf := m.Headers.Get(sip.HdrMaxForwards); mf != "" {
			if n, err := strconv.Atoi(mf); err != nil || n < 0 || n > 255 {
				violations = append(violations, fmt.Sprintf("invalid Max-Forwards %q", mf))
			}
		}
		if _, err := m.From(); err != nil {
			violations = append(violations, "unparseable From: "+err.Error())
		}
		if _, err := m.To(); err != nil {
			violations = append(violations, "unparseable To: "+err.Error())
		}
	}
	return violations
}
