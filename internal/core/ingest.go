package core

// The parallel ingest front end for ShardedEngine.
//
// With a single router goroutine, every frame's Ethernet/IPv4/UDP decode
// and classification (the shared classifier of classify.go: SIP parse,
// RTP/RTCP header peek, accounting parse, and the ladder when the port's
// decoder rejects the payload) runs under the routing lock — the ingest
// bottleneck that flattens shard scaling. The ingest tier splits that
// work in two:
//
//	HandleFrame ──▶ feeder ──▶ lane 0 ┐
//	               (deals 64-  lane 1 ├──▶ sequencer ──▶ shard queues
//	                frame      …      │   (arrival-order
//	                blocks     lane N ┘    stateful routing)
//	                round-robin)
//
//   - N decode lanes each own a decoder (SIP parser plus view scratch)
//     and run the *stateless* per-frame work — the expensive part —
//     fully in parallel, reducing each frame to an ingDigest.
//   - One sequencer consumes the digest batches in the exact order the
//     feeder dealt them and replays only the *stateful* remainder
//     (directory transitions, hinter verdicts, sticky-key pinning, shard
//     handoff) under the routing lock, batch-at-a-time.
//
// The synchronous router is the inline case of the same path: after
// Ethernet, IPv4 and reassembly it fills an ingDigest with its own
// decoder and hands it to the same stateful half (shipDigestLocked).
// The decoder is the one the distiller uses, so every site classifies a
// payload identically by construction.
//
// Determinism argument: the feeder deals whole batches to lanes in strict
// rotation while holding feedMu, so the global batch order is the arrival
// order. Each lane is FIFO, and the sequencer reads lane outputs in the
// same strict rotation, so it observes batches — and therefore frames —
// in exactly the order HandleFrame accepted them. All order-sensitive
// state (session directory, reassembler clocks, hinter correlators,
// sticky keys, frame indices and merge tags) is touched only by the
// sequencer, single-threaded, so the routing decisions are byte-for-byte
// the decisions the synchronous router would have made. The differential
// tests in ingest_diff_test.go hold every (ingesters × shards) point to
// byte-identical output with the serial engine.
//
// The only work a lane performs against shared state is claimPortOf and
// the ladder's confirm functions, which are pure functions of the port
// numbers and payload bytes (see correlator.go and classify.go) — safe
// to call concurrently with the sequencer.
//
// Deadlock freedom: the stages form a DAG (feeder → lane.in → lane.out →
// sequencer → shard queues) with every edge a bounded channel and no
// back-edges; the batch pool's free list is refilled by the sequencer,
// which never blocks on the feeder. Backpressure propagates cleanly:
// a full shard queue stalls the sequencer, then the lanes, then
// HandleFrame — exactly the synchronous router's behavior.
//
// Steady-state frames allocate nothing: batches come from a fixed
// recycled pool, digests are written in place, and lane scratch (parser,
// peek views) is lane-owned. TestSteadyStateAllocs holds the RTP/RTCP
// path with ingest lanes to 0 allocs/op.

import (
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"scidive/internal/accounting"
	"scidive/internal/packet"
	"scidive/internal/sip"
)

const (
	// ingBatchSize frames are dealt to a lane per rotation turn. Matches
	// shardBatchSize so one ingest batch amortizes the routing lock the
	// same way a shard batch amortizes a queue send.
	ingBatchSize = 64
	// ingQueueDepth bounds each lane's input and output channels.
	ingQueueDepth = 2
)

// ingDigestKind says how far decoding got with a frame, which is exactly
// what the sequencer must replay to keep the router's clocks and state
// serial-identical.
type ingDigestKind uint8

const (
	// ingDrop: dropped before IPv4 decode (bad Ethernet/IPv4 framing).
	// The synchronous router returns before touching the reassembler, so
	// the sequencer advances nothing.
	ingDrop ingDigestKind = iota
	// ingClock: dropped after IPv4 decode (non-UDP protocol, bad UDP
	// framing, or a port no decodable protocol claims). The synchronous
	// router advanced the reassembly clocks first, so the sequencer does
	// the same.
	ingClock
	// ingFrag: an IPv4 fragment. Reassembly is stateful, so the
	// sequencer replays the whole frame through routeLocked.
	ingFrag
	// ingStream: a TCP segment. Stream transports are stateful end to end
	// (reassembly cursors, framing buffers, flow teardown), so the
	// sequencer replays the whole frame through routeLocked like a
	// fragment.
	ingStream
	// ingDatagram: a classified payload on a claimed port; proto and ok
	// say what the shared classifier decoded.
	ingDatagram
)

// ingDigest is one classified frame (or stream message) reduced to what
// the stateful half of routing reads. Lanes write it in place for the
// sequencer; the synchronous router fills one inline.
type ingDigest struct {
	kind     ingDigestKind
	proto    Protocol // dispatch protocol: the content protocol, or the claimed one when raw
	ok       bool     // a decoder accepted the payload (false: raw on the claimed port)
	at       time.Duration
	frame    []byte
	src, dst netip.AddrPort
	seq      uint16       // RTP sequence number
	msg      *sip.Message // parsed SIP message (scratch owned by the decoding site)
	callID   string       // accounting Call-ID
	start    bool         // accounting START transaction
}

// fill records a classified view in the digest.
func (d *ingDigest) fill(v *FrameView) {
	d.kind, d.proto, d.ok = ingDatagram, v.Proto, v.Proto != ProtoOther
	if !d.ok {
		d.proto = v.OnPort
	}
	d.msg, d.seq = v.Msg, v.RTP.Seq
	d.callID, d.start = v.Txn.CallID, v.Txn.Kind == accounting.TxnStart
}

// decoder is one routing site's stateless front half: the registry's
// port claims and ladder (read-only, shared) plus private scratch — the
// SIP sink and the view the shared classifier fills. The synchronous
// router owns one (used under mu), and so does each ingest lane. The
// classifier's raw reason is dropped: routing needs only the verdict.
type decoder struct {
	claimers []Correlator
	ladder   classifyLadder
	sink     sipSink
	view     FrameView
}

// datagram fills d from a reassembled IPv4 body: UDP validation, the
// port claim and the shared classifier. Anything that is not a UDP
// datagram on a decodable claimed port leaves d as ingClock.
func (dc *decoder) datagram(ipProto uint8, srcIP, dstIP netip.Addr, body []byte, d *ingDigest) {
	d.kind = ingClock
	if ipProto != packet.ProtoUDP {
		return
	}
	uh, payload, err := packet.PeekUDP(srcIP, dstIP, body)
	if err != nil {
		return
	}
	proto, claimed := claimPortOf(dc.claimers, uh.SrcPort, uh.DstPort)
	if !claimed || !decodable(proto) {
		return
	}
	d.src = netip.AddrPortFrom(srcIP, uh.SrcPort)
	d.dst = netip.AddrPortFrom(dstIP, uh.DstPort)
	dc.view.reset()
	_ = classifyPayload(dc.ladder, proto, payload, dc.sink, &dc.view)
	d.fill(&dc.view)
}

// message fills d from one stream-extracted message: framed messages are
// SIP-claimed payloads, tunnel chunks run the ladder alone.
func (dc *decoder) message(sm streamMsg, d *ingDigest) {
	*d = ingDigest{at: sm.at, src: sm.src, dst: sm.dst}
	dc.view.reset()
	if sm.kind == streamKindTunnel {
		_ = classifyTunnel(dc.ladder, sm.payload, dc.sink, &dc.view)
	} else {
		_ = classifyPayload(dc.ladder, ProtoSIP, sm.payload, dc.sink, &dc.view)
	}
	d.fill(&dc.view)
}

// ingBatch carries ingBatchSize consecutive frames from the feeder
// through one lane to the sequencer. SIP messages are parsed into the
// batch's own slots (at most one per frame); the parsed views alias the
// retained frames, which outlive the batch's trip through the sequencer.
type ingBatch struct {
	lane int
	n    int
	nmsg int
	dig  [ingBatchSize]ingDigest
	msgs [ingBatchSize]sip.Message
}

// reset clears the frame references of a consumed batch before it
// returns to the free pool. The SIP message slots keep their internal
// buffers (that reuse is what makes lane parsing cheap), like the
// synchronous router's single scratch message.
func (b *ingBatch) reset() {
	clear(b.dig[:b.n])
	b.n, b.nmsg = 0, 0
}

// ingMsg is one unit on a lane's channels: a digest batch, or a drain
// marker the sequencer acks by closing it.
type ingMsg struct {
	batch  *ingBatch
	marker chan struct{}
}

// ingLane is one decode worker: a goroutine with a private decoder, fed
// batches over in, forwarding them decoded over out.
type ingLane struct {
	in  chan ingMsg
	out chan ingMsg
	dec decoder

	fed       atomic.Uint64
	decoded   atomic.Uint64
	sequenced atomic.Uint64
}

// ingestTier owns the decode lanes and the sequencer.
type ingestTier struct {
	owner *ShardedEngine
	lanes []*ingLane

	feedMu sync.Mutex // serializes feeding: arrival order is feed order
	closed bool
	fill   *ingBatch // partially filled batch not yet dealt to a lane
	rot    int       // next lane in the deal rotation

	free    chan *ingBatch // fixed recycled batch pool
	seqDone chan struct{}
}

func newIngestTier(s *ShardedEngine, n int) *ingestTier {
	t := &ingestTier{
		owner:   s,
		lanes:   make([]*ingLane, n),
		seqDone: make(chan struct{}),
	}
	// Fixed pool: every batch that can be in flight at once (per lane:
	// in-queue, out-queue, one being decoded) plus the feeder's fill
	// batch and the sequencer's current batch, with one spare so the
	// feeder rarely waits.
	poolSize := n*(2*ingQueueDepth+1) + 3
	t.free = make(chan *ingBatch, poolSize)
	for i := 0; i < poolSize; i++ {
		t.free <- new(ingBatch)
	}
	for i := range t.lanes {
		l := &ingLane{
			in:  make(chan ingMsg, ingQueueDepth),
			out: make(chan ingMsg, ingQueueDepth),
			dec: decoder{claimers: s.dec.claimers, ladder: s.dec.ladder, sink: sipSink{parser: sip.NewParser()}},
		}
		t.lanes[i] = l
		go l.run()
	}
	go t.sequence()
	return t
}

// feed accepts one frame in arrival order. It appends to the fill batch
// and deals the batch to the next lane in rotation when full. Blocking
// on a full lane (or an empty pool) is the backpressure path.
func (t *ingestTier) feed(at time.Duration, frame []byte) {
	t.feedMu.Lock()
	if t.closed {
		t.feedMu.Unlock()
		t.owner.framesAfterClose.Add(1)
		return
	}
	b := t.fill
	if b == nil {
		b = <-t.free
		t.fill = b
	}
	b.dig[b.n] = ingDigest{at: at, frame: frame}
	b.n++
	if b.n == ingBatchSize {
		t.fill = nil
		t.dealLocked(b)
	}
	t.feedMu.Unlock()
}

// dealLocked hands a filled batch to the next lane in rotation. Called
// with feedMu held: the rotation position is the batch's global order.
func (t *ingestTier) dealLocked(b *ingBatch) {
	lane := t.rot % len(t.lanes)
	t.rot++
	b.lane = lane
	t.lanes[lane].fed.Add(uint64(b.n))
	t.lanes[lane].in <- ingMsg{batch: b}
}

// drain flushes the fill batch and sends one marker through every lane
// in rotation, then waits until the sequencer has consumed the last
// marker — at which point every frame fed before the call has been
// sequenced into its shard queue. Safe to call concurrently; no-op after
// close.
func (t *ingestTier) drain() {
	t.feedMu.Lock()
	if t.closed {
		t.feedMu.Unlock()
		return
	}
	if t.fill != nil && t.fill.n > 0 {
		b := t.fill
		t.fill = nil
		t.dealLocked(b)
	}
	// One marker per lane, dealt through the same rotation as data
	// batches; only the rotation's last marker carries the ack channel
	// (the sequencer reaches it strictly after the other N-1).
	done := make(chan struct{})
	for i := 0; i < len(t.lanes); i++ {
		var m ingMsg
		if i == len(t.lanes)-1 {
			m.marker = done
		}
		lane := t.rot % len(t.lanes)
		t.rot++
		t.lanes[lane].in <- m
	}
	t.feedMu.Unlock()
	// The sequencer closes done when it consumes the rotation's last
	// marker; per-lane FIFO plus strict rotation mean everything dealt
	// before the markers has been sequenced by then.
	<-done
}

// close drains in-flight work and stops the lane and sequencer
// goroutines. Subsequent feeds count as after-close. Idempotent.
func (t *ingestTier) close() {
	t.feedMu.Lock()
	if t.closed {
		t.feedMu.Unlock()
		return
	}
	t.closed = true
	if t.fill != nil && t.fill.n > 0 {
		b := t.fill
		t.fill = nil
		t.dealLocked(b)
	}
	for _, l := range t.lanes {
		close(l.in)
	}
	t.feedMu.Unlock()
	<-t.seqDone
}

func (l *ingLane) run() {
	defer close(l.out)
	for m := range l.in {
		if b := m.batch; b != nil {
			for i := 0; i < b.n; i++ {
				l.decodeOne(b, &b.dig[i])
			}
			l.decoded.Add(uint64(b.n))
		}
		l.out <- m
	}
}

// decodeOne runs the stateless half of routeLocked for one frame:
// framing decode, then the decoder's claim and classification. Each
// early return mirrors a drop (or clock-advance) point of the
// synchronous path; the digest kind tells the sequencer which one.
func (l *ingLane) decodeOne(b *ingBatch, d *ingDigest) {
	ef, err := packet.UnmarshalEthernet(d.frame)
	if err != nil || ef.Type != packet.EtherTypeIPv4 {
		d.kind = ingDrop
		return
	}
	iph, ipPayload, err := packet.UnmarshalIPv4(ef.Payload)
	if err != nil {
		d.kind = ingDrop
		return
	}
	switch {
	case iph.FragOffset != 0 || iph.MoreFragments():
		d.kind = ingFrag
	case iph.Protocol == packet.ProtoTCP:
		d.kind = ingStream
	default:
		l.dec.sink.into = &b.msgs[b.nmsg]
		l.dec.datagram(iph.Protocol, iph.Src, iph.Dst, ipPayload, d)
		if d.msg != nil {
			b.nmsg++
		}
	}
}

// sequence is the single consumer of every lane's output. Reading lanes
// in the same strict rotation the feeder dealt them restores the global
// arrival order; each batch is replayed into the routing path under the
// routing lock, one lock acquisition per 64 frames.
func (t *ingestTier) sequence() {
	defer close(t.seqDone)
	s := t.owner
	for r := 0; ; r++ {
		m, ok := <-t.lanes[r%len(t.lanes)].out
		if !ok {
			// Lanes close in-rotation once the feeder closed their
			// inputs; a closed lane at this rotation slot means nothing
			// was dealt here or later.
			return
		}
		if m.batch == nil {
			if m.marker != nil {
				close(m.marker)
			}
			continue
		}
		b := m.batch
		s.mu.Lock()
		for i := 0; i < b.n; i++ {
			d := &b.dig[i]
			s.frames.Add(1)
			s.frameIdx++
			if s.frameIdx%gcEvery == 0 {
				s.expireLocked(d.at)
			}
			s.sequenceDigestLocked(s.frameIdx, d)
		}
		s.mu.Unlock()
		t.lanes[b.lane].sequenced.Add(uint64(b.n))
		b.reset()
		t.free <- b
	}
}

// sequenceDigestLocked replays the stateful remainder of one frame's
// routing: exactly the work routeLocked does after the point the lane's
// digest captured.
func (s *ShardedEngine) sequenceDigestLocked(idx uint64, d *ingDigest) {
	switch d.kind {
	case ingDrop:
		return
	case ingFrag, ingStream:
		// Fragments and TCP segments take the full synchronous path:
		// reassembly, group/stream buffering and the eventual handoff are
		// all stateful.
		s.routeLocked(idx, d.at, d.frame)
		return
	}
	// Unfragmented past IPv4 decode: the synchronous path advanced the
	// fragment-group prune and the reassembler's expiry clock (Insert
	// expires first, then returns unfragmented packets untouched).
	s.frags.prune(d.at)
	s.reasm.Expire(d.at)
	s.shipDigestLocked(idx, d, nil)
}
