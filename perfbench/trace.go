package main

import (
	"bufio"
	"fmt"
	"net/netip"
	"os"
	"runtime"
	"time"

	"scidive/internal/core"
	"scidive/internal/packet"
	"scidive/internal/sip"
)

// Traced layers: one span per call into a layer's public entry point.
const (
	spanDistill   = iota // Distiller.DistillView
	spanGenerator        // EventGenerator.ProcessView
	spanRules            // RuleEngine.Feed
	spanStream           // TCP decode, StreamReassembler.Push and SIP framing (stand-in)
	spanParse            // sip.Parser.Parse (stand-in)
	spanObserve          // Exporter.Observe
	spanFlush            // Exporter.Flush
	spanEncode           // core.EncodeDigest
	spanDecode           // core.DecodeDigest (stand-in)
	spanHandle           // Aggregator.HandleDigest
	spanFinalize         // Aggregator.Finalize
	numLayers
)

var layerNames = [numLayers]string{
	"distill", "generator", "rules", "packet.stream", "sip.parse",
	"exporter.observe", "exporter.flush", "digest.encode", "digest.decode",
	"aggregator.handle", "aggregator.finalize",
}

// span is one timed call. All spans of one frame share its frame index
// (the capture index; for digest spans, the index of the frame after
// which the digest shipped). Times are nanoseconds since the tracer's
// epoch.
type span struct {
	frame      int32
	layer      uint8
	start, end int64
}

// tracer keeps one pass's spans in memory; writeSpans dumps them at the
// end of the run.
type tracer struct {
	epoch time.Time
	spans []span
	total [numLayers]time.Duration
	count [numLayers]int
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(frame, layer int, start int64) {
	end := t.now()
	t.spans = append(t.spans, span{frame: int32(frame), layer: uint8(layer), start: start, end: end})
	t.total[layer] += time.Duration(end - start)
	t.count[layer]++
}

// writeSpans dumps the last pass of each traced phase as CSV:
// pass,frame,layer,start_ns,end_ns, times counted from the pass's start.
func writeSpans(path string, passes map[string]*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "pass,frame,layer,start_ns,end_ns")
	for _, name := range []string{"composition", "sip-parse", "coop"} {
		for _, s := range passes[name].spans {
			fmt.Fprintf(bw, "%s,%d,%s,%d,%d\n", name, s.frame, layerNames[s.layer], s.start, s.end)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// composition is the serial pipeline composed from its public parts, the
// form Engine.HandleFrame runs internally. The engine's TCP stream arm is
// internal, so the composition stands in for it with the public
// packet.StreamReassembler and sip.StreamFramer and hands each complete
// message to DistillView as a datagram between the same endpoints, which
// the distiller parses exactly as its stream arm would.
type composition struct {
	d      *core.Distiller
	g      *core.EventGenerator
	re     *core.RuleEngine
	arm    *streamArm
	view   core.FrameView
	evs    []core.Event
	views  int
	events int
}

func newComposition() *composition {
	return &composition{
		d:   core.NewDistiller(),
		g:   core.NewEventGenerator(core.GenConfig{}, core.NewTrailStore(4096)),
		re:  core.NewRuleEngine(core.DefaultRuleset()),
		arm: newStreamArm(),
	}
}

// datagram runs one UDP frame through the composition, with one span per
// layer call when tr is set.
func (c *composition) datagram(i int, at time.Duration, data []byte, tr *tracer) {
	var s int64
	if tr != nil {
		s = tr.now()
	}
	ok := c.d.DistillView(at, data, &c.view)
	if tr != nil {
		tr.record(i, spanDistill, s)
	}
	if !ok {
		return
	}
	c.views++
	c.evs = c.evs[:0]
	if tr != nil {
		s = tr.now()
	}
	c.g.ProcessView(&c.view, core.RouteHints{}, &c.evs)
	if tr != nil {
		tr.record(i, spanGenerator, s)
	}
	for _, ev := range c.evs {
		if tr != nil {
			s = tr.now()
		}
		c.re.Feed(ev)
		if tr != nil {
			tr.record(i, spanRules, s)
		}
	}
	c.events += len(c.evs)
}

// streamArm stands in for the engine's stream arm: TCP decode,
// per-direction reassembly and SIP framing. A chunk that starts an RTP
// version 2 header at a message boundary is a tunnelled packet and
// bypasses framing, as the engine's content sniff does.
type streamArm struct {
	reasm   *packet.StreamReassembler
	framers map[packet.StreamID]*sip.StreamFramer
}

func newStreamArm() *streamArm {
	return &streamArm{reasm: packet.NewStreamReassembler(0), framers: make(map[packet.StreamID]*sip.StreamFramer)}
}

// push feeds one frame through the arm, calling emit (if set) with each
// complete message or tunnelled chunk; the slice is valid during the
// call. It reports whether the frame was a TCP segment.
func (a *streamArm) push(at time.Duration, data []byte, emit func(src, dst netip.AddrPort, msg []byte)) bool {
	ef, err := packet.UnmarshalEthernet(data)
	if err != nil {
		return false
	}
	iph, ipPayload, err := packet.UnmarshalIPv4(ef.Payload)
	if err != nil || iph.Protocol != packet.ProtoTCP {
		return false
	}
	h, payload, err := packet.PeekTCP(iph.Src, iph.Dst, ipPayload)
	if err != nil {
		return true
	}
	src, dst := netip.AddrPortFrom(iph.Src, h.SrcPort), netip.AddrPortFrom(iph.Dst, h.DstPort)
	id := packet.StreamID{Src: src, Dst: dst}
	fr := a.framers[id]
	if fr == nil {
		fr = new(sip.StreamFramer)
		a.framers[id] = fr
	}
	a.reasm.Push(id, h, payload, at, func(b []byte) {
		if fr.PendingBytes() == 0 && len(b) > 0 && b[0]>>6 == 2 {
			if emit != nil {
				emit(src, dst, b)
			}
			return
		}
		fr.Push(b, func(msg []byte) {
			if emit != nil {
				emit(src, dst, msg)
			}
		})
	})
	return true
}

// sipPayload is one SIP message of the capture and the frame carrying (or
// completing) it.
type sipPayload struct {
	frame int
	msg   []byte
}

// compInputs prepares, outside any timing, the composition's per-frame
// input: for each TCP segment the messages it completes, wrapped as
// datagrams (UDP frames are fed as they are), and every SIP message of the
// capture for the parser stand-in.
func compInputs(w *workload) (tcp []bool, msgs [][][]byte, sipPayloads []sipPayload) {
	arm := newStreamArm()
	tcp = make([]bool, len(w.frames))
	msgs = make([][][]byte, len(w.frames))
	for i, f := range w.frames {
		tcp[i] = arm.push(f.at, f.data, func(src, dst netip.AddrPort, msg []byte) {
			frames, err := packet.BuildUDPFrames(packet.UDPFrameSpec{
				SrcMAC: macA, DstMAC: macB, SrcIP: src.Addr(), DstIP: dst.Addr(),
				SrcPort: src.Port(), DstPort: dst.Port(), Payload: msg,
			}, 1<<16-1)
			if err != nil || len(frames) != 1 {
				panic(fmt.Sprintf("perfbench: wrap stream message: %v", err))
			}
			msgs[i] = append(msgs[i], frames[0])
			if msg[0]>>6 != 2 {
				sipPayloads = append(sipPayloads, sipPayload{i, append([]byte(nil), msg...)})
			}
		})
		if tcp[i] {
			continue
		}
		ef, err := packet.UnmarshalEthernet(f.data)
		if err != nil {
			continue
		}
		iph, ipPayload, err := packet.UnmarshalIPv4(ef.Payload)
		if err != nil || iph.Protocol != packet.ProtoUDP {
			continue
		}
		h, payload, err := packet.PeekUDP(iph.Src, iph.Dst, ipPayload)
		if err == nil && (h.SrcPort == sip.DefaultPort || h.DstPort == sip.DefaultPort) {
			sipPayloads = append(sipPayloads, sipPayload{i, payload})
		}
	}
	return tcp, msgs, sipPayloads
}

// runComposition replays w through a fresh composition and returns it
// with the loop's wall time. TCP segments get a packet.stream span; the
// messages they complete then run through the datagram path.
func runComposition(w *workload, tcp []bool, msgs [][][]byte, tr *tracer) (*composition, time.Duration) {
	c := newComposition()
	start := time.Now()
	for i := range w.frames {
		f := &w.frames[i]
		if !tcp[i] {
			c.datagram(i, f.at, f.data, tr)
			continue
		}
		var s int64
		if tr != nil {
			s = tr.now()
		}
		c.arm.push(f.at, f.data, nil)
		if tr != nil {
			tr.record(i, spanStream, s)
		}
		for _, m := range msgs[i] {
			c.datagram(i, f.at, m, tr)
		}
	}
	return c, time.Since(start)
}

// tracedCoop runs the coop shape with spans on the exporters, the digest
// codec and the aggregator, and returns the events and bytes shipped.
func tracedCoop(w *workload, tr *tracer) (events, bytes int, c *coopPipeline) {
	c = newCoop()
	frameIdx := 0
	observe := func(ex *core.Exporter) func(core.Event) {
		return func(ev core.Event) {
			s := tr.now()
			ex.Observe(ev)
			tr.record(frameIdx, spanObserve, s)
		}
	}
	c.edge.OnEvent(observe(c.exEdge))
	c.gateway.OnEvent(observe(c.exGateway))
	ship := func(ex *core.Exporter, point string, src netip.AddrPort) {
		s := tr.now()
		d := ex.Flush(point)
		tr.record(frameIdx, spanFlush, s)
		if d == nil {
			return
		}
		s = tr.now()
		b := core.EncodeDigest(d)
		tr.record(frameIdx, spanEncode, s)
		s = tr.now()
		if _, err := core.DecodeDigest(b); err != nil {
			panic(err) // just encoded; cannot fail
		}
		tr.record(frameIdx, spanDecode, s)
		s = tr.now()
		c.agg.HandleDigest(src, b)
		tr.record(frameIdx, spanHandle, s)
		events += len(d.Events)
		bytes += len(b)
	}
	for i := range w.frames {
		frameIdx = i
		f := &w.frames[i]
		if f.edge {
			c.edge.HandleFrame(f.at, f.data)
		}
		if f.gateway {
			c.gateway.HandleFrame(f.at, f.data)
		}
		if (i+1)%digestEvery == 0 || i == len(w.frames)-1 {
			ship(c.exEdge, core.PointEdge, srcEdge)
			ship(c.exGateway, core.PointGateway, srcGateway)
		}
	}
	s := tr.now()
	c.agg.Finalize(w.frames[len(w.frames)-1].at)
	tr.record(frameIdx, spanFinalize, s)
	return events, bytes, c
}

// minCoverage is the least share of the traced composition's time its
// spans must cover.
const minCoverage = 0.9

// Shares of the traced run's measuring time per phase.
const (
	compShare    = 0.4
	parseShare   = 0.05
	shardedShare = 0.15
	coopShare    = 0.1
	snapShare    = 0.05
)

// measureLayers produces the per-layer metrics of one workload: a traced
// composition of the serial pipeline beside the engine itself, the SIP
// parser stand-in, the sharded router seen from its caller, the coop codec
// and merge, the snapshot codec and the open-loop generator itself.
func measureLayers(w *workload, measure time.Duration, t *tally, info map[string]any, spansPath string) (map[string]metric, error) {
	n := len(w.frames)
	phase := func(share float64) budget { return newBudget(time.Duration(share * float64(measure))) }
	tcp, msgs, sipPayloads := compInputs(w)

	// The composition untraced, traced, and the engine, in rotation, so
	// host drift moves all three alike.
	var untraced, traced, engineNs []float64
	var layerNs [spanStream + 1][]float64 // distill, generator, rules, packet.stream
	var last *tracer
	var comp *composition
	var mismatch float64
	b := phase(compShare)
	for rep := 0; b.more(rep, 6); rep++ {
		runtime.GC()
		switch rep % 3 {
		case 0:
			_, d := runComposition(w, tcp, msgs, nil)
			untraced = append(untraced, float64(d))
		case 1:
			tr := newTracer(3 * n)
			c, d := runComposition(w, tcp, msgs, tr)
			traced = append(traced, float64(d))
			for l := range layerNs {
				layerNs[l] = append(layerNs[l], float64(tr.total[l]))
			}
			t.run("composition", t.compare("composition alerts", c.re.Alerts(), w.expected(byHub))...)
			last, comp = tr, c
		case 2:
			r := runSerial(w)
			r.check(w, t)
			engineNs = append(engineNs, float64(r.elapsed))
			ds := r.eng.DistillerStats()
			mismatch = frac(ds.Mismatched, ds.Frames)
		}
	}
	var covered float64
	var layerMed [spanStream + 1]float64
	for l := range layerNs {
		layerMed[l] = median(layerNs[l])
		covered += layerMed[l]
	}
	tracedNs, engineTotal := median(traced), median(engineNs)
	segs := last.count[spanStream]

	// The SIP parser stand-in on every SIP payload, datagram or framed.
	var parseNs []float64
	var lastParse *tracer
	parser := sip.NewParser()
	b = phase(parseShare)
	for rep := 0; b.more(rep, 2); rep++ {
		tr := newTracer(len(sipPayloads))
		for _, p := range sipPayloads {
			s := tr.now()
			_, _ = parser.Parse(p.msg) // every payload parses; only the cost is measured
			tr.record(p.frame, spanParse, s)
		}
		parseNs = append(parseNs, perOp(tr.total[spanParse], len(sipPayloads)))
		lastParse = tr
	}

	// Sharded router, seen from its caller.
	var routeNs, busy, drainMs []float64
	b = phase(shardedShare)
	for rep := 0; b.more(rep, 2); rep++ {
		runtime.GC()
		r := runSharded(w)
		r.check(w, t, nil)
		routeNs = append(routeNs, perOp(r.route, n))
		busy = append(busy, r.route.Seconds()/r.elapsed.Seconds())
		drainMs = append(drainMs, r.drain.Seconds()*1e3)
	}

	// Coop: exporters, digest codec, aggregator merge.
	var encNs, decNs, bytesPer, mergeNs []float64
	var lastCoop *tracer
	b = phase(coopShare)
	for rep := 0; b.more(rep, 2); rep++ {
		runtime.GC()
		tr := newTracer(0)
		lastCoop = tr
		events, bytes, c := tracedCoop(w, tr)
		coopRun{c: c}.check(w, t)
		encNs = append(encNs, perOp(tr.total[spanEncode], events))
		decNs = append(decNs, perOp(tr.total[spanDecode], events))
		bytesPer = append(bytesPer, float64(bytes)/float64(max(events, 1)))
		mergeNs = append(mergeNs, perOp(tr.total[spanHandle]+tr.total[spanFinalize], events))
		info["coop_events_shipped"] = events
	}

	// Snapshot codec at the midpoint.
	eng, snap, err := serialCheckpoint(w)
	if err != nil {
		return nil, err
	}
	var encMs, restoreMs []float64
	b = phase(snapShare)
	for rep := 0; b.more(rep, 5); rep++ {
		runtime.GC()
		start := time.Now()
		if snap, err = eng.Snapshot(); err != nil {
			return nil, err
		}
		encMs = append(encMs, time.Since(start).Seconds()*1e3)
		fresh := core.NewEngine(core.Config{})
		runtime.GC()
		start = time.Now()
		if err := fresh.RestoreSnapshot(snap); err != nil {
			return nil, err
		}
		restoreMs = append(restoreMs, time.Since(start).Seconds()*1e3)
	}

	// Open loop: one pass per shape; the sharded pass samples the backlog.
	runtime.GC()
	rs := openLoopSerial(w)
	rs.check(w, t, "serial", false)
	runtime.GC()
	rsh := openLoopSharded(w, true)
	rsh.check(w, t, "sharded", true)
	late := append(durs(rs.late, time.Microsecond), durs(rsh.late, time.Microsecond)...)
	lateMax := quantile(late, 1) / 1e3

	if spansPath != "" {
		if err := writeSpans(spansPath, map[string]*tracer{"composition": last, "sip-parse": lastParse, "coop": lastCoop}); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}

	// The spans must account for the traced pass, or the per-layer split
	// is not to be trusted.
	var p []string
	if cov := covered / tracedNs; cov < minCoverage {
		p = append(p, fmt.Sprintf("spans cover %.3f of the traced pass, below %.2f", cov, minCoverage))
	}
	t.run("trace coverage", p...)

	other := (engineTotal - covered) / float64(n)
	shares := map[string]float64{"engine.other": (engineTotal - covered) / engineTotal}
	dominant := "engine.other"
	for l := range layerMed {
		shares[layerNames[l]] = layerMed[l] / engineTotal
		if shares[layerNames[l]] > shares[dominant] {
			dominant = layerNames[l]
		}
	}
	info["serial_layer_shares"] = shares
	info["serial_dominant_layer"] = dominant
	info["stand_in_segments"], info["sip_messages"] = segs, len(sipPayloads)
	info["snapshot_bytes"] = len(snap)

	return map[string]metric{
		"distill.ns_per_frame":       {layerMed[spanDistill] / float64(n), "ns"},
		"distill.mismatch_frac":      {mismatch, "ratio"},
		"generator.ns_per_view":      {layerMed[spanGenerator] / float64(max(comp.views, 1)), "ns"},
		"generator.events_per_view":  {float64(comp.events) / float64(max(comp.views, 1)), "ratio"},
		"rules.ns_per_event":         {layerMed[spanRules] / float64(max(comp.events, 1)), "ns"},
		"packet.stream_ns_per_seg":   {perOp(time.Duration(layerMed[spanStream]), segs), "ns"},
		"sip.parse_ns_per_msg":       {median(parseNs), "ns"},
		"engine.other_ns_per_frame":  {other, "ns"},
		"router.ns_per_frame":        {median(routeNs), "ns"},
		"router.busy_frac":           {median(busy), "ratio"},
		"router.backlog_max_frames":  {float64(rsh.backlogMax), "count"},
		"router.drain_ms":            {median(drainMs), "ms"},
		"digest.encode_ns_per_event": {median(encNs), "ns"},
		"digest.decode_ns_per_event": {median(decNs), "ns"},
		"digest.bytes_per_event":     {median(bytesPer), "B"},
		"coop.merge_ns_per_event":    {median(mergeNs), "ns"},
		"snapshot.encode_ms":         {median(encMs), "ms"},
		"snapshot.bytes":             {float64(len(snap)), "B"},
		"snapshot.restore_ms":        {median(restoreMs), "ms"},
		"loadgen.late_p50_us":        {median(late), "us"},
		"loadgen.late_max_ms":        {lateMax, "ms"},
		"trace.overhead_frac":        {tracedNs/median(untraced) - 1, "ratio"},
		"trace.coverage_frac":        {covered / tracedNs, "ratio"},
	}, nil
}

// perOp returns d in nanoseconds per operation (0 when there were none).
func perOp(d time.Duration, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(d) / float64(ops)
}
