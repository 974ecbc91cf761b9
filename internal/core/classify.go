package core

import (
	"errors"

	"scidive/internal/accounting"
	"scidive/internal/rtp"
	"scidive/internal/sip"
)

// This file implements content-confirmed protocol classification: the
// layer between port claims and protocol decoding that catches traffic
// whose content contradicts its port. Port claims still pick the
// candidate protocol (paper Section 3.1); when the candidate's decoder
// rejects the payload, the reclassification ladder below asks each
// correlator that can recognize its protocol's wire shape (the
// contentConfirmer capability) whether the bytes look like *its*
// traffic, in registry order, skipping the protocol the port claimed.
// The first confirming protocol whose full decoder also accepts the
// payload wins, and the resulting view is flagged with the port's
// expected protocol (FrameView.PortProto) so the evasion correlator can
// raise protocol-mismatch / evasion-suspect self-alerts. If no step
// confirms, the frame falls through to the raw footprint path — the
// ladder never changes the fate of traffic that decodes under its
// port's protocol.
//
// classifyPayload is the one decoder that does all of this. The
// distiller (serial engine and shards), the sharded router and the
// parallel-ingest lanes all call it; they differ only in where a SIP
// message lands (sipSink) and in what they do with the decoded view:
// the distiller counts stats and keeps the view, while the router and
// the lanes reduce it to an ingDigest for the stateful routing half.

// contentConfirmer correlators can recognize their protocol's wire
// shape from payload bytes alone, independent of ports. confirmContent
// must be cheap, allocation-free, and conservative: a confirmation only
// nominates the protocol for full decoding, so false positives waste a
// decode attempt but false negatives hide evasion.
type contentConfirmer interface {
	// contentProto is the protocol the confirmer recognizes.
	contentProto() Protocol
	// confirmContent reports whether the payload plausibly carries the
	// protocol. Must not retain or mutate the payload.
	confirmContent(payload []byte) bool
}

// ladderStep is one rung of the reclassification ladder.
type ladderStep struct {
	proto   Protocol
	confirm func(payload []byte) bool
}

// classifyLadder is the ordered reclassification ladder: the
// contentConfirmer correlators of a registry, in registry order.
type classifyLadder []ladderStep

// ladderOf builds the ladder for a correlator set. Registry order is
// part of the engine's observable behavior (a payload that confirms as
// both SIP and RTP reclassifies to whichever correlator registers
// first), matching how port claims already resolve ties.
func ladderOf(correlators []Correlator) classifyLadder {
	var ladder classifyLadder
	for _, c := range correlators {
		if cc, ok := c.(contentConfirmer); ok {
			ladder = append(ladder, ladderStep{proto: cc.contentProto(), confirm: cc.confirmContent})
		}
	}
	return ladder
}

// sniffLineMax bounds the start-line scan: a SIP start line longer than
// this is not worth reclassifying toward.
const sniffLineMax = 256

// sniffSIPStart reports whether the buffer begins with a plausible SIP
// start line: either a status line ("SIP/2.0 ...") or a request line
// (token method, a space, and a line ending in " SIP/2.0"). Zero
// allocation; rejects binary payloads on the first non-token byte.
func sniffSIPStart(b []byte) bool {
	if len(b) >= 8 && string(b[:8]) == "SIP/2.0 " {
		return true
	}
	// Request line: Method SP Request-URI SP SIP/2.0 CRLF.
	i := 0
	for i < len(b) && i < sniffLineMax && isSIPTokenByte(b[i]) {
		i++
	}
	if i == 0 || i >= len(b) || b[i] != ' ' {
		return false
	}
	j := i + 1
	for j < len(b) && j < sniffLineMax && b[j] != '\r' && b[j] != '\n' {
		j++
	}
	if j >= len(b) || j >= sniffLineMax {
		return false
	}
	const ver = " SIP/2.0"
	if j < i+1+len(ver) {
		return false
	}
	return string(b[j-len(ver):j]) == ver
}

// isSIPTokenByte reports whether c is an RFC 3261 token character (the
// alphabet of method names).
func isSIPTokenByte(c byte) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		return true
	}
	switch c {
	case '-', '.', '!', '%', '*', '_', '+', '`', '\'', '~':
		return true
	}
	return false
}

// RTP payload types 72-76 collide with the RTCP packet-type range
// (200-204 with the marker bit folded in, RFC 3550 Section 5.1); a
// "header" carrying one is an RTCP packet misread as RTP, so content
// confirmation rejects it.
const (
	rtcpConflictPTLo = 72
	rtcpConflictPTHi = 76
)

// confirmRTPContent reports whether the payload plausibly is an RTP
// packet: the peek decoder accepts it, the payload type avoids the RTCP
// conflict range, and the SSRC is nonzero (every real stream in this
// simulation — and almost every real implementation — picks a random
// nonzero SSRC, while zeroed garbage trivially passes the version
// check). Stack-local scratch; never allocates.
func confirmRTPContent(payload []byte) bool {
	var hv rtp.HeaderView
	if rtp.PeekHeader(payload, &hv) != nil {
		return false
	}
	if hv.PayloadType >= rtcpConflictPTLo && hv.PayloadType <= rtcpConflictPTHi {
		return false
	}
	return hv.SSRC != 0
}

// confirmRTCPContent reports whether the payload is a well-formed RTCP
// compound: the peek decoder's validation (version, known packet types,
// lengths tiling the buffer exactly) is already a strong content check.
func confirmRTCPContent(payload []byte) bool {
	var cv rtp.CompoundView
	return rtp.PeekCompound(payload, &cv) == nil
}

// rtpPayloadHasSIP reports whether a successfully decoded RTP packet's
// media payload begins with a SIP start line — the SIP-smuggled-in-RTP
// evasion. hv must be the PeekHeader result for payload. Extension
// headers are not modeled by the decoder, so packets flagged with one
// are not inspected.
func rtpPayloadHasSIP(payload []byte, hv *rtp.HeaderView) bool {
	if hv.Extension || hv.PayloadLen == 0 {
		return false
	}
	off := rtp.HeaderLen + 4*hv.CSRCCount
	if off+hv.PayloadLen > len(payload) {
		return false
	}
	return sniffSIPStart(payload[off : off+hv.PayloadLen])
}

// tunnelSniff is the stream-arm analogue of the ladder: given a chunk
// of reassembled TCP bytes on a SIP-claimed stream with no partial SIP
// message pending, it reports whether the chunk is a media packet
// tunneled over the trunk (RTP or RTCP content confirmation). The SIP
// rung is skipped — SIP is what the stream is *supposed* to carry.
func (l classifyLadder) tunnelSniff(b []byte) (Protocol, bool) {
	for _, step := range l {
		if step.proto != ProtoRTP && step.proto != ProtoRTCP {
			continue
		}
		if step.confirm(b) {
			return step.proto, true
		}
	}
	return ProtoOther, false
}

// sipSink says where the classifier parses a SIP payload: into a fresh
// Message (into == nil: the distiller, whose trails retain the message)
// or into caller-owned scratch that the next parse overwrites (the
// router and the ingest lanes, which keep only interned strings).
type sipSink struct {
	parser *sip.Parser
	into   *sip.Message
}

func (s sipSink) parse(b []byte) (*sip.Message, error) {
	if s.into == nil {
		return s.parser.Parse(b)
	}
	if err := s.parser.ParseInto(b, s.into); err != nil {
		return nil, err
	}
	return s.into, nil
}

// decodable reports whether a port claim names a protocol the classifier
// decodes. Other claims (the control plane's ProtoControl) mark traffic
// to ignore.
func decodable(p Protocol) bool {
	switch p {
	case ProtoSIP, ProtoAccounting, ProtoRTP, ProtoRTCP:
		return true
	}
	return false
}

// classifyPayload decodes a payload whose port claimed the given
// (decodable) protocol: the claimed protocol's decoder first, then the
// ladder when that decoder rejects the payload. It fills v's Proto,
// PortProto and the content protocol's decoded fields (Msg, RTP with
// EmbeddedSIP, RTCP or Txn) and returns nil. When nothing decodes, v
// becomes a raw view (ProtoOther on the claimed port) and the claimed
// decoder's error, the raw reason, is returned. v must be zero on entry.
//
// classifyPayload touches no stats and no session state: the ladder's
// confirm functions and the decoders are pure, and the SIP sink is the
// caller's, so ingest lanes call it in parallel.
func classifyPayload(ladder classifyLadder, claimed Protocol, payload []byte, sink sipSink, v *FrameView) error {
	var err error
	switch claimed {
	case ProtoSIP:
		var m *sip.Message
		if m, err = sink.parse(payload); err == nil {
			v.Proto, v.Msg = ProtoSIP, m
			return nil
		}
	case ProtoAccounting:
		var txn accounting.Txn
		if txn, err = accounting.ParseTxn(payload); err == nil {
			v.Proto, v.Txn = ProtoAccounting, txn
			return nil
		}
	case ProtoRTP:
		if err = rtp.PeekHeader(payload, &v.RTP); err == nil {
			v.Proto, v.EmbeddedSIP = ProtoRTP, rtpPayloadHasSIP(payload, &v.RTP)
			return nil
		}
		v.RTP = rtp.HeaderView{}
	case ProtoRTCP:
		if err = rtp.PeekCompound(payload, &v.RTCP); err == nil {
			v.Proto = ProtoRTCP
			return nil
		}
		v.RTCP = rtp.CompoundView{}
	}
	return ladder.reclassify(claimed, payload, sink, v, err)
}

// errTunnelChunk is the raw reason of a stream chunk that sniffed as
// media but that no decoder accepts.
var errTunnelChunk = errors.New("unclassifiable stream chunk")

// classifyTunnel is classifyPayload for a chunk the stream mux queued as
// media tunneled over a SIP-claimed stream (streamKindTunnel): the chunk
// bypassed SIP framing, so only the ladder runs.
func classifyTunnel(ladder classifyLadder, payload []byte, sink sipSink, v *FrameView) error {
	return ladder.reclassify(ProtoSIP, payload, sink, v, errTunnelChunk)
}

// reclassify runs the ladder after the claimed protocol's decoder
// rejected the payload with reason. Steps run in registry order,
// skipping the claimed protocol (its decoder already said no); the first
// step whose cheap confirmation AND full decode both accept the payload
// wins, and the view carries that protocol's decoded fields with
// PortProto recording the contradicted claim. When no step accepts, v
// becomes the raw view and reason is returned.
func (l classifyLadder) reclassify(claimed Protocol, payload []byte, sink sipSink, v *FrameView, reason error) error {
	for _, step := range l {
		if step.proto == claimed || !step.confirm(payload) {
			continue
		}
		switch step.proto {
		case ProtoSIP:
			m, err := sink.parse(payload)
			if err != nil {
				continue
			}
			v.Msg = m
		case ProtoRTP:
			if rtp.PeekHeader(payload, &v.RTP) != nil {
				v.RTP = rtp.HeaderView{}
				continue
			}
			v.EmbeddedSIP = rtpPayloadHasSIP(payload, &v.RTP)
		case ProtoRTCP:
			if rtp.PeekCompound(payload, &v.RTCP) != nil {
				v.RTCP = rtp.CompoundView{}
				continue
			}
		default:
			continue
		}
		v.Proto, v.PortProto = step.proto, claimed
		return nil
	}
	v.Proto, v.OnPort, v.RawLen = ProtoOther, claimed, len(payload)
	return reason
}
