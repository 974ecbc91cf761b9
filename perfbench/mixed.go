package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"scidive/internal/core"
	"scidive/internal/sip"
)

// Addresses of the call topology shared by udp-mixed and coop-split:
// phones signal through one proxy; media flows phone to phone.
var (
	addrProxy    = netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 0, 1}), sip.DefaultPort)
	addrAttacker = netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 0, 66}), sip.DefaultPort)
)

// heartbeatEvery is the gateway probe's RTPActivityEvery: the interval of
// the media-liveness heartbeats the cross-point rule consumes.
const heartbeatEvery = 500 * time.Millisecond

// mixedParams sizes udp-mixed and coop-split.
type mixedParams struct {
	calls    int // concurrent calls, all set up before media starts
	rounds   int // nominal media rounds; each call ends in the second half
	attacked int // calls that get the forged BYE
	rate     float64
}

// Call phases of the mixed generator.
const (
	phaseLive     = iota
	phaseOrphan   // udp-mixed attack: the callee hung up, the caller streams on
	phaseSplitRun // coop-split attack: the proxy absorbed the BYE, both stream on
	phaseDone
)

type mixedCall struct {
	d          *dialog
	end        int
	attacked   bool
	phase      int
	orphans    int  // udp-mixed: caller frames after the BYE still to send
	firstAfter bool // coop-split: the caller's first frame after the BYE is next
	byeAt      time.Duration
	seqA, seqB uint16
	ssrcA      uint32
	ssrcB      uint32
	beats      int // gateway heartbeats seen after the forged BYE
}

// mixedCalls generates udp-mixed (split=false) and coop-split
// (split=true). Both have the same calls: every call is set up through
// the proxy (INVITE and 200 on both proxy legs, end-to-end ACK), then all
// calls exchange two-way G.711 RTP round-robin, then each call ends in a
// seeded round of the second half with an end-to-end BYE and 200. A fixed
// number of calls instead get the Figure 5 forged BYE:
//
//   - udp-mixed: the BYE, spoofed from the caller, reaches the callee, who
//     stops; the caller's next two media frames are orphans. The hub
//     engine and the gateway probe (which sees every phone's frames)
//     raise bye-attack on the first orphan.
//   - coop-split: the attacker sends the BYE from its own address to the
//     proxy, which absorbs it, so both phones stream on. Only the edge
//     probe sees the BYE and only the gateway probe sees the media, so
//     only the aggregator convicts (bye-teardown-split, on the second
//     gateway heartbeat after the BYE). The hub engine, which sees both,
//     raises bye-attack on the caller's first frame after the BYE.
func mixedCalls(name string, seed int64, p mixedParams, split bool) *workload {
	rng := rand.New(rand.NewSource(seed))
	cw := &capture{}
	attacked := pick(rng, p.calls, p.attacked)
	calls := make([]*mixedCall, p.calls)
	for i := range calls {
		callerIP := netip.AddrFrom4([4]byte{10, 1, byte(i / 200), byte(1 + i%200)})
		calleeIP := netip.AddrFrom4([4]byte{10, 2, byte(i / 200), byte(1 + i%200)})
		callID := fmt.Sprintf("%08x-%d@pbx", rng.Uint32(), i)
		c := &mixedCall{
			d: newDialog(callID, i, callerIP, calleeIP,
				netip.AddrPortFrom(callerIP, evenPort(rng)), netip.AddrPortFrom(calleeIP, evenPort(rng)), "UDP"),
			// Calls end in a seeded round of the second half; media
			// rounds go on until the last call is over.
			end:      p.rounds/2 + rng.Intn(p.rounds/2),
			attacked: attacked[i],
			seqA:     uint16(rng.Intn(1 << 15)),
			seqB:     uint16(rng.Intn(1 << 15)),
			ssrcA:    rng.Uint32() | 1,
			ssrcB:    rng.Uint32() | 1,
		}
		calls[i] = c
	}

	w := &workload{name: name, rate: p.rate, sizes: map[string]int{
		"calls": p.calls, "rounds": p.rounds, "attacked": p.attacked,
	}}
	sipUDP := func(src, dst netip.AddrPort, payload []byte, gateway bool) {
		cw.udp(src, dst, payload, true, gateway)
	}

	// Set-up: every call becomes live before media starts.
	for _, c := range calls {
		d := c.d
		caller := netip.AddrPortFrom(d.callerSig, sip.DefaultPort)
		callee := netip.AddrPortFrom(d.calleeSig, sip.DefaultPort)
		inv := d.invite.Marshal()
		sipUDP(caller, addrProxy, inv, true)
		sipUDP(addrProxy, callee, inv, true)
		ok := d.ok()
		sipUDP(callee, addrProxy, ok, true)
		sipUDP(addrProxy, caller, ok, true)
		sipUDP(caller, callee, d.ack(), true)
	}

	// lastBeat mirrors the gateway's per-destination heartbeat clock.
	lastBeat := make(map[netip.AddrPort]time.Duration)
	media := func(c *mixedCall, fromCaller bool) time.Duration {
		src, dst, seq, ssrc := c.d.callerMedia, c.d.calleeMedia, &c.seqA, c.ssrcA
		if !fromCaller {
			src, dst, seq, ssrc = c.d.calleeMedia, c.d.callerMedia, &c.seqB, c.ssrcB
		}
		*seq++
		at := cw.udp(src, dst, rtpPayload(*seq, uint32(cw.now/(125*time.Microsecond)), ssrc, nil), false, true)
		last, seen := lastBeat[dst]
		if !seen || at-last >= heartbeatEvery {
			lastBeat[dst] = at
			if c.phase == phaseSplitRun {
				c.beats++
				if c.beats == 2 && at-c.byeAt <= 5*time.Second {
					w.expect = append(w.expect, expAlert{core.RuleByeTeardownSplit, c.d.callID, at, byAgg})
				}
			}
		}
		return at
	}
	teardown := func(c *mixedCall) {
		req, resp := c.d.bye()
		caller := netip.AddrPortFrom(c.d.callerSig, sip.DefaultPort)
		callee := netip.AddrPortFrom(c.d.calleeSig, sip.DefaultPort)
		sipUDP(caller, callee, req, true)
		sipUDP(callee, caller, resp, true)
		c.phase = phaseDone
	}

	// A round is one G.711 packet per direction per live call, so the
	// virtual clock never advances less than one packet interval per
	// round, however few calls are left.
	roundStart := cw.now
	for round := 0; ; round++ {
		cw.now = max(cw.now, roundStart+20*time.Millisecond)
		roundStart = cw.now
		live := 0
		for _, c := range calls {
			switch c.phase {
			case phaseDone:
				continue
			case phaseLive:
				if round < c.end {
					media(c, true)
					media(c, false)
					break
				}
				if !c.attacked {
					teardown(c)
					break
				}
				forged := c.d.inDialog(sip.MethodBye, 2).Marshal()
				if split {
					c.byeAt = cw.udp(addrAttacker, addrProxy, forged, true, false)
					c.phase, c.firstAfter = phaseSplitRun, true
				} else {
					c.byeAt = cw.udp(netip.AddrPortFrom(c.d.callerSig, sip.DefaultPort),
						netip.AddrPortFrom(c.d.calleeSig, sip.DefaultPort), forged, true, true)
					c.phase, c.orphans = phaseOrphan, 2
				}
			case phaseOrphan:
				at := media(c, true)
				if c.orphans == 2 {
					w.expect = append(w.expect, expAlert{core.RuleByeAttack, c.d.callID, at, byHub | byGateway})
				}
				if c.orphans--; c.orphans == 0 {
					c.phase = phaseDone
				}
			case phaseSplitRun:
				at := media(c, true)
				if c.firstAfter {
					c.firstAfter = false
					w.expect = append(w.expect, expAlert{core.RuleByeAttack, c.d.callID, at, byHub})
				}
				media(c, false)
				if cw.now-c.byeAt >= 3*heartbeatEvery {
					teardown(c)
				}
			}
			if c.phase != phaseDone {
				live++
			}
		}
		if live == 0 {
			break
		}
	}
	w.frames = cw.frames
	w.index()
	return w
}
