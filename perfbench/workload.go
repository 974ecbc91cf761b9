package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"scidive/internal/packet"
	"scidive/internal/rtp"
	"scidive/internal/sdp"
	"scidive/internal/sip"
)

// frame is one wire frame of a workload capture with the vantage mask of
// the cooperative shape: edge is the signalling tap (every frame on the
// SIP port, UDP or TCP); gateway sees every frame that has a user agent
// (client phone or trunk PBX) as source or destination.
type frame struct {
	at      time.Duration
	data    []byte
	edge    bool
	gateway bool
}

// Who raises an expected alert. A workload knows, from how it was built,
// which engine of which shape must raise each alert.
const (
	byHub     = 1 << iota // the single-tap engine (serial and sharded shapes)
	byEdge                // the coop shape's edge probe engine
	byGateway             // the coop shape's gateway probe engine
	byAgg                 // the coop shape's aggregator (cross-point rules)
)

// expAlert is one alert the workload must raise: the rule, its session
// key and the virtual time of the frame that completes it.
type expAlert struct {
	rule    string
	session string
	at      time.Duration
	by      int
}

// alertKey identifies an alert for set comparison. Frame times are unique
// within a workload, so the key also names the completing frame.
type alertKey struct {
	rule    string
	session string
	at      time.Duration
}

// workload is one generated benchmark input: the hub capture, the alerts
// it must raise, and the offered rate of the open-loop latency runs.
type workload struct {
	name   string
	frames []frame
	expect []expAlert
	// rate is the open-loop offered rate in frames per second.
	rate float64
	// sizes records the generator's parameters for the info line.
	sizes map[string]int
	// frameAt maps a frame's virtual time to its index.
	frameAt map[time.Duration]int
}

// expected returns the expected alerts raised by the given engine role.
func (w *workload) expected(by int) map[alertKey]bool {
	out := make(map[alertKey]bool)
	for _, e := range w.expect {
		if e.by&by != 0 {
			out[alertKey{e.rule, e.session, e.at}] = true
		}
	}
	return out
}

// index builds frameAt. Frame times are unique because capture advances
// its clock on every frame, which the latency bookkeeping relies on.
func (w *workload) index() {
	w.frameAt = make(map[time.Duration]int, len(w.frames))
	for i, f := range w.frames {
		w.frameAt[f.at] = i
	}
}

// frameSpacing is the virtual time between consecutive capture frames.
const frameSpacing = 200 * time.Microsecond

// capture accumulates frames on a virtual clock advancing frameSpacing
// per frame, so every frame time is unique.
type capture struct {
	frames []frame
	now    time.Duration
	ipid   uint16
}

var (
	macA = packet.MAC{2, 0, 0, 0, 0, 1}
	macB = packet.MAC{2, 0, 0, 0, 0, 2}
)

// udp appends one UDP datagram and returns its virtual time.
func (c *capture) udp(src, dst netip.AddrPort, payload []byte, edge, gateway bool) time.Duration {
	c.ipid++
	frames, err := packet.BuildUDPFrames(packet.UDPFrameSpec{
		SrcMAC: macA, DstMAC: macB,
		SrcIP: src.Addr(), DstIP: dst.Addr(), SrcPort: src.Port(), DstPort: dst.Port(),
		IPID: c.ipid, Payload: payload,
	}, 0)
	if err != nil || len(frames) != 1 {
		panic(fmt.Sprintf("perfbench: build udp frame: %v (%d frames)", err, len(frames)))
	}
	return c.push(frames[0], edge, gateway)
}

// tcp appends one TCP segment and returns its virtual time.
func (c *capture) tcp(src, dst netip.AddrPort, seq, ack uint32, flags uint8, payload []byte, edge, gateway bool) time.Duration {
	c.ipid++
	frames, err := packet.BuildTCPFrames(packet.TCPFrameSpec{
		SrcMAC: macA, DstMAC: macB,
		SrcIP: src.Addr(), DstIP: dst.Addr(), SrcPort: src.Port(), DstPort: dst.Port(),
		Seq: seq, Ack: ack, Flags: flags, IPID: c.ipid, Payload: payload,
	}, 0)
	if err != nil || len(frames) != 1 {
		panic(fmt.Sprintf("perfbench: build tcp frame: %v (%d frames)", err, len(frames)))
	}
	return c.push(frames[0], edge, gateway)
}

func (c *capture) push(data []byte, edge, gateway bool) time.Duration {
	c.now += frameSpacing
	c.frames = append(c.frames, frame{at: c.now, data: data, edge: edge, gateway: gateway})
	return c.now
}

// rtpPayload builds one G.711 (PCMU, 20 ms) RTP packet.
func rtpPayload(seq uint16, ts uint32, ssrc uint32, body []byte) []byte {
	if body == nil {
		body = make([]byte, 160)
	}
	p := rtp.Packet{
		Header:  rtp.Header{PayloadType: rtp.PayloadTypePCMU, Seq: seq, Timestamp: ts, SSRC: ssrc},
		Payload: body,
	}
	buf, err := p.Marshal()
	if err != nil {
		panic(err) // fixed header shape; cannot fail
	}
	return buf
}

// dialog is the SIP identity of one call plus its media endpoints.
type dialog struct {
	callID                   string
	from, to                 sip.Address
	callerTag, calleeTag     string
	callerSig, calleeSig     netip.Addr
	callerMedia, calleeMedia netip.AddrPort
	transport                string
	invite                   *sip.Message
}

func newDialog(callID string, n int, callerSig, calleeSig netip.Addr, callerMedia, calleeMedia netip.AddrPort, transport string) *dialog {
	d := &dialog{
		callID:      callID,
		callerTag:   fmt.Sprintf("ct%d", n),
		calleeTag:   fmt.Sprintf("ce%d", n),
		callerSig:   callerSig,
		calleeSig:   calleeSig,
		callerMedia: callerMedia,
		calleeMedia: calleeMedia,
		transport:   transport,
	}
	d.from = sip.Address{URI: sip.URI{User: fmt.Sprintf("alice%d", n), Host: "pbx"}}.WithTag(d.callerTag)
	d.to = sip.Address{URI: sip.URI{User: fmt.Sprintf("bob%d", n), Host: "pbx"}}
	d.invite = sip.NewRequest(sip.RequestSpec{
		Method:     sip.MethodInvite,
		RequestURI: d.to.URI.String(),
		From:       d.from, To: d.to,
		CallID:   callID,
		CSeq:     sip.CSeq{Seq: 1, Method: sip.MethodInvite},
		Via:      sip.Via{Transport: transport, SentBy: callerSig.String()},
		Body:     sdp.NewAudioSession("caller", callerMedia.Addr(), callerMedia.Port()).Marshal(),
		BodyType: "application/sdp",
	})
	return d
}

func (d *dialog) ringing() []byte {
	return sip.NewResponse(d.invite, sip.StatusRinging, d.calleeTag).Marshal()
}

func (d *dialog) ok() []byte {
	ok := sip.NewResponse(d.invite, sip.StatusOK, d.calleeTag)
	ok.Headers.Add(sip.HdrContentType, "application/sdp")
	ok.Body = sdp.NewAudioSession("callee", d.calleeMedia.Addr(), d.calleeMedia.Port()).Marshal()
	return ok.Marshal()
}

// inDialog builds an in-dialog request from the caller (ACK or BYE).
func (d *dialog) inDialog(method sip.Method, cseq uint32) *sip.Message {
	return sip.NewRequest(sip.RequestSpec{
		Method:     method,
		RequestURI: d.to.URI.String(),
		From:       d.from, To: d.to.WithTag(d.calleeTag),
		CallID: d.callID,
		CSeq:   sip.CSeq{Seq: cseq, Method: method},
		Via:    sip.Via{Transport: d.transport, SentBy: d.callerSig.String()},
	})
}

func (d *dialog) ack() []byte { return d.inDialog(sip.MethodAck, 1).Marshal() }

// bye returns the caller's BYE and the callee's 200 to it.
func (d *dialog) bye() (req, resp []byte) {
	b := d.inDialog(sip.MethodBye, 2)
	return b.Marshal(), sip.NewResponse(b, sip.StatusOK, "").Marshal()
}

// pick returns k distinct indices of [0, n) chosen by rng.
func pick(rng *rand.Rand, n, k int) map[int]bool {
	out := make(map[int]bool, k)
	for _, i := range rng.Perm(n)[:k] {
		out[i] = true
	}
	return out
}

// evenPort returns a random even media port in [10000, 60000).
func evenPort(rng *rand.Rand) uint16 { return uint16(10000 + 2*rng.Intn(25000)) }
