package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"scidive/internal/core"
	"scidive/internal/packet"
	"scidive/internal/sip"
)

// Addresses of the tcp-trunk topology: two PBXs signal over long-lived
// TCP trunk connections; each side's media comes from its own gateway
// address, one even port per call.
var (
	addrPBXA   = netip.MustParseAddr("10.0.0.21")
	addrPBXB   = netip.MustParseAddr("10.0.0.22")
	addrMediaA = netip.MustParseAddr("10.0.3.1")
	addrMediaB = netip.MustParseAddr("10.0.4.1")
)

// trunkParams sizes tcp-trunk.
type trunkParams struct {
	calls      int // calls placed over the run, one after another
	concurrent int // calls in flight at once (their steps interleave)
	media      int // two-way media rounds per call
	attacked   int // calls ended by a forged in-stream BYE
	smuggled   int // calls whose caller smuggles a SIP message inside RTP
	tunnelled  int // calls that tunnel one RTP packet through the trunk stream
	rate       float64
}

// trunkConn is one TCP trunk connection from PBX A to PBX B.
type trunkConn struct {
	a, b       netip.AddrPort
	seqA, seqB uint32
}

// trunkPorts returns PBX A's ports of the two trunk connections. The
// sharded router pins each TCP flow, and every call signalled over it, to
// the shard its canonical 4-tuple hashes to; the second trunk's port is
// the first one from 35000 up that hashes to the other of two shards, so
// the sharded shape sees both trunks in parallel as a balanced deployment
// would. The choice depends on no seed.
func trunkPorts() [2]uint16 {
	key := func(p uint16) string {
		return "tcp:" + netip.AddrPortFrom(addrPBXA, p).String() + "|" + netip.AddrPortFrom(addrPBXB, sip.DefaultPort).String()
	}
	first := core.ShardOf(key(sip.DefaultPort), 2)
	for p := uint16(35000); ; p++ {
		if core.ShardOf(key(p), 2) != first {
			return [2]uint16{sip.DefaultPort, p}
		}
	}
}

// send ships msgs from one side of the trunk as a same-direction burst:
// coalesced into one segment, each message whole, or each message cut
// mid-header across two segments.
func (t *trunkConn) send(cw *capture, fromA bool, mode int, msgs ...[]byte) {
	src, dst, seq, ack := t.a, t.b, &t.seqA, t.seqB
	if !fromA {
		src, dst, seq, ack = t.b, t.a, &t.seqB, t.seqA
	}
	seg := func(b []byte) {
		cw.tcp(src, dst, *seq, ack, packet.TCPFlagACK|packet.TCPFlagPSH, b, true, true)
		*seq += uint32(len(b))
	}
	switch {
	case mode == frameCoalesce && len(msgs) > 1:
		var burst []byte
		for _, m := range msgs {
			burst = append(burst, m...)
		}
		seg(burst)
	case mode == frameSplit:
		for _, m := range msgs {
			cut := len(m) / 3 // lands mid-header: neither part parses alone
			seg(m[:cut])
			seg(m[cut:])
		}
	default:
		for _, m := range msgs {
			seg(m)
		}
	}
}

// Trunk framing modes.
const (
	frameWhole = iota
	frameSplit
	frameCoalesce
)

type trunkCall struct {
	d          *dialog
	conn       *trunkConn
	mode       int
	step       int
	attacked   bool
	smuggled   bool
	tunnelled  bool
	seqA, seqB uint16
	ssrcA      uint32
	ssrcB      uint32
}

// tcpTrunk generates tcp-trunk: calls.calls short calls between two PBXs,
// signalled over two TCP trunk connections (alternating per call) with
// concurrent calls in flight. Every call sends INVITE, 180+200, ACK, a
// few rounds of two-way UDP media and BYE+200; each burst is framed whole,
// split mid-header or coalesced at random. Seeded disjoint sets of calls
// carry:
//
//   - the forged BYE: an in-stream BYE continuing the caller's side,
//     after which the caller's next two media frames are orphans
//     (bye-attack on the first);
//   - SIP smuggled inside RTP: one caller media frame carries a SIP
//     request as its payload (evasion-suspect for the call);
//   - RTP tunnelled on the SIP port: one RTP packet injected as its own
//     segment into the trunk stream between messages (protocol-mismatch
//     and evasion-suspect; both are keyed by the tunnel's destination, so
//     only the first tunnelled packet raises them).
func tcpTrunk(seed int64, p trunkParams) *workload {
	rng := rand.New(rand.NewSource(seed))
	cw := &capture{}
	w := &workload{name: "tcp-trunk", rate: p.rate, sizes: map[string]int{
		"calls": p.calls, "concurrent": p.concurrent, "media_rounds": p.media,
		"attacked": p.attacked, "smuggled": p.smuggled, "tunnelled": p.tunnelled,
	}}

	ports := trunkPorts()
	var conns [2]*trunkConn
	for i := range conns {
		c := &trunkConn{
			a:    netip.AddrPortFrom(addrPBXA, ports[i]),
			b:    netip.AddrPortFrom(addrPBXB, sip.DefaultPort),
			seqA: rng.Uint32(), seqB: rng.Uint32(),
		}
		cw.tcp(c.a, c.b, c.seqA, 0, packet.TCPFlagSYN, nil, true, true)
		cw.tcp(c.b, c.a, c.seqB, c.seqA+1, packet.TCPFlagSYN|packet.TCPFlagACK, nil, true, true)
		c.seqA++
		c.seqB++
		cw.tcp(c.a, c.b, c.seqA, c.seqB, packet.TCPFlagACK, nil, true, true)
		conns[i] = c
	}

	// Disjoint attack, smuggle and tunnel sets.
	perm := rng.Perm(p.calls)
	role := make([]int, p.calls)
	for i, n := range []int{p.attacked, p.smuggled, p.tunnelled} {
		for _, c := range perm[:n] {
			role[c] = i + 1
		}
		perm = perm[n:]
	}
	portBase := rng.Intn(20000)
	newCall := func(i int) *trunkCall {
		mediaPort := uint16(10000 + 2*((portBase+i)%25000))
		c := &trunkCall{
			d: newDialog(fmt.Sprintf("%08x-%d@trunk", rng.Uint32(), i), i, addrPBXA, addrPBXB,
				netip.AddrPortFrom(addrMediaA, mediaPort), netip.AddrPortFrom(addrMediaB, mediaPort), "TCP"),
			conn:      conns[i%2],
			mode:      rng.Intn(3),
			attacked:  role[i] == 1,
			smuggled:  role[i] == 2,
			tunnelled: role[i] == 3,
			seqA:      uint16(rng.Intn(1 << 15)),
			seqB:      uint16(rng.Intn(1 << 15)),
			ssrcA:     rng.Uint32() | 1,
			ssrcB:     rng.Uint32() | 1,
		}
		return c
	}
	media := func(c *trunkCall, fromCaller bool, body []byte) time.Duration {
		src, dst, seq, ssrc := c.d.callerMedia, c.d.calleeMedia, &c.seqA, c.ssrcA
		if !fromCaller {
			src, dst, seq, ssrc = c.d.calleeMedia, c.d.callerMedia, &c.seqB, c.ssrcB
		}
		*seq++
		return cw.udp(src, dst, rtpPayload(*seq, uint32(cw.now/(125*time.Microsecond)), ssrc, body), false, true)
	}
	tunnelDst := conns[0].b
	tunnelSeq := uint16(rng.Intn(1 << 15))
	tunnelSeen := false

	// step runs a call's next step and reports whether the call is over.
	step := func(c *trunkCall) bool {
		defer func() { c.step++ }()
		switch s := c.step; {
		case s == 0:
			c.conn.send(cw, true, c.mode, c.d.invite.Marshal())
		case s == 1:
			c.conn.send(cw, false, c.mode, c.d.ringing(), c.d.ok())
		case s == 2:
			c.conn.send(cw, true, c.mode, c.d.ack())
		case s < 3+p.media:
			round := s - 3
			var body []byte
			if c.smuggled && round == 1 {
				body = c.d.inDialog(sip.MethodMessage, 3).Marshal()
			}
			at := media(c, true, body)
			if body != nil {
				w.expect = append(w.expect, expAlert{core.RuleEvasionSuspect, c.d.callID, at, byHub | byGateway})
			}
			media(c, false, nil)
			if c.tunnelled && round == 1 {
				tunnelSeq++
				pkt := rtpPayload(tunnelSeq, uint32(cw.now/(125*time.Microsecond)), 0x7E770001, nil)
				at := cw.tcp(c.conn.a, c.conn.b, c.conn.seqA, c.conn.seqB, packet.TCPFlagACK|packet.TCPFlagPSH, pkt, true, true)
				c.conn.seqA += uint32(len(pkt))
				if !tunnelSeen {
					tunnelSeen = true
					session := "rtp:" + tunnelDst.String()
					w.expect = append(w.expect,
						expAlert{core.RuleProtocolMismatch, session, at, byHub | byGateway | byEdge},
						expAlert{core.RuleEvasionSuspect, session, at, byHub | byGateway | byEdge})
				}
			}
		case s == 3+p.media:
			// Teardown; for attacked calls the BYE is the forgery.
			req, resp := c.d.bye()
			c.conn.send(cw, true, c.mode, req)
			c.conn.send(cw, false, c.mode, resp)
			return !c.attacked
		case s == 4+p.media:
			at := media(c, true, nil)
			w.expect = append(w.expect, expAlert{core.RuleByeAttack, c.d.callID, at, byHub | byGateway})
		default:
			media(c, true, nil)
			return true
		}
		return false
	}

	var active []*trunkCall
	next := 0
	for next < p.calls || len(active) > 0 {
		for len(active) < p.concurrent && next < p.calls {
			active = append(active, newCall(next))
			next++
		}
		k := rng.Intn(len(active))
		if step(active[k]) {
			active = append(active[:k], active[k+1:]...)
		}
	}
	w.frames = cw.frames
	w.index()
	return w
}
