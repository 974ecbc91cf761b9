package main

import (
	"fmt"
	"net/netip"
	"time"

	"scidive/internal/coop"
	"scidive/internal/core"
)

// Engine shapes under test.
const (
	numShards   = 2    // sized for a 2-CPU host
	digestEvery = 1024 // coop: frames between digest shipments per probe
)

var (
	srcEdge    = netip.MustParseAddrPort("10.0.0.30:7100")
	srcGateway = netip.MustParseAddrPort("10.0.0.31:7100")
)

// tally accumulates the output checks of every run.
type tally struct {
	attempted int // runs whose outputs were checked
	failed    int // runs with at least one failed check
	expected  int // expected alerts, over every checked run
	missing   int
	extra     int
	offered   int // frames offered, over every checked run
	dropped   int // frames shed or refused after Close
	problems  []string
	warnings  []string // void printed-only figures; the run still passes
}

// run records one checked run; problems empty means it passed.
func (t *tally) run(shape string, problems ...string) {
	t.attempted++
	if len(problems) > 0 {
		t.failed++
		for _, p := range problems {
			if len(t.problems) < 20 {
				t.problems = append(t.problems, shape+": "+p)
			}
		}
	}
}

// compare checks got against want and returns a problem line, if any.
func (t *tally) compare(what string, got []core.Alert, want map[alertKey]bool) []string {
	seen := make(map[alertKey]bool, len(got))
	var extra []string
	for _, a := range got {
		k := alertKey{a.Rule, a.Session, a.At}
		seen[k] = true
		if !want[k] {
			extra = append(extra, fmt.Sprintf("%s@%v(%s)", a.Rule, a.At, a.Session))
		}
	}
	missing := 0
	for k := range want {
		if !seen[k] {
			missing++
		}
	}
	n := len(extra)
	t.expected += len(want)
	t.missing += missing
	t.extra += n
	if missing == 0 && n == 0 {
		return nil
	}
	if n > 3 {
		extra = extra[:3]
	}
	return []string{fmt.Sprintf("%s: %d missing, %d unexpected of %d expected alerts %v", what, missing, n, len(want), extra)}
}

// distillLedger checks Frames + StreamMsgs == the sum of terminal counters.
func distillLedger(what string, d core.DistillerStats) []string {
	in := d.Frames + d.StreamMsgs
	out := d.DecodeError + d.Fragments + d.Ignored + d.Streamed + d.SIP + d.RTP + d.RTCP + d.Acct + d.Raw + d.Mismatched
	if in != out {
		return []string{fmt.Sprintf("%s distiller ledger: frames+streamMsgs %d != terminal %d", what, in, out)}
	}
	return nil
}

// serialRun is one closed-loop replay through core.Engine.
type serialRun struct {
	elapsed time.Duration
	eng     *core.Engine
}

func runSerial(w *workload) serialRun {
	eng := core.NewEngine(core.Config{})
	start := time.Now()
	for _, f := range w.frames {
		eng.HandleFrame(f.at, f.data)
	}
	return serialRun{elapsed: time.Since(start), eng: eng}
}

func (r serialRun) check(w *workload, t *tally) {
	p := t.compare("alerts", r.eng.Alerts(), w.expected(byHub))
	p = append(p, distillLedger("serial", r.eng.DistillerStats())...)
	p = append(p, t.drops(len(w.frames), r.eng.Stats())...)
	t.run("serial", p...)
}

// shardedRun is one closed-loop replay through core.ShardedEngine.
type shardedRun struct {
	elapsed time.Duration // HandleFrame loop plus the final Flush
	route   time.Duration // time the caller spent in HandleFrame
	drain   time.Duration // the final Flush
	alerts  []core.Alert
	health  []core.ShardHealth
	stats   core.EngineStats
	dstats  core.DistillerStats
}

func runSharded(w *workload) shardedRun {
	s := core.NewShardedEngine(core.Config{}, numShards)
	defer s.Close()
	start := time.Now()
	for _, f := range w.frames {
		s.HandleFrame(f.at, f.data)
	}
	routed := time.Now()
	s.Flush()
	end := time.Now()
	return shardedRun{
		elapsed: end.Sub(start), route: routed.Sub(start), drain: end.Sub(routed),
		alerts: s.Alerts(), health: s.ShardHealth(), stats: s.Stats(), dstats: s.DistillerStats(),
	}
}

func (r shardedRun) check(w *workload, t *tally, serialKeys map[[2]string]bool) {
	p := t.compare("alerts", r.alerts, w.expected(byHub))
	p = append(p, shardLedger(r.health)...)
	p = append(p, distillLedger("sharded", r.dstats)...)
	if serialKeys != nil {
		if got := ruleSessions(r.alerts); !sameKeys(got, serialKeys) {
			p = append(p, fmt.Sprintf("(rule, session) set differs from serial: %d vs %d", len(got), len(serialKeys)))
		}
	}
	p = append(p, t.drops(len(w.frames), r.stats)...)
	t.run("sharded", p...)
}

// drops accounts the frames a run offered and lost (shed or refused after
// Close); with no shedding configured, any loss is a failed check.
func (t *tally) drops(offered int, st core.EngineStats) []string {
	lost := st.FramesShed + st.FramesAfterClose
	t.offered += offered
	t.dropped += lost
	if lost > 0 {
		return []string{fmt.Sprintf("%d of %d frames shed or refused after Close", lost, offered)}
	}
	return nil
}

// shardLedger checks routed == processed + shed on every shard.
func shardLedger(health []core.ShardHealth) []string {
	var p []string
	for _, h := range health {
		if h.FramesRouted != h.FramesProcessed+h.FramesShed {
			p = append(p, fmt.Sprintf("shard %d ledger: routed %d != processed %d + shed %d",
				h.Shard, h.FramesRouted, h.FramesProcessed, h.FramesShed))
		}
	}
	return p
}

// ruleSessions returns the (rule, session) set of alerts.
func ruleSessions(alerts []core.Alert) map[[2]string]bool {
	out := make(map[[2]string]bool, len(alerts))
	for _, a := range alerts {
		out[[2]string{a.Rule, a.Session}] = true
	}
	return out
}

func sameKeys(a, b map[[2]string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// coopPipeline is the cooperative shape: an edge probe and a gateway
// probe (serial engines on their vantages of the capture), their
// exporters, and one offline aggregator fed the encoded digests.
type coopPipeline struct {
	edge, gateway     *core.Engine
	exEdge, exGateway *core.Exporter
	agg               *coop.Aggregator
}

func gatewayConfig() core.Config {
	return core.Config{Gen: core.GenConfig{RTPActivityEvery: heartbeatEvery}}
}

func newCoop() *coopPipeline {
	c := &coopPipeline{
		edge:      core.NewEngine(core.Config{}),
		gateway:   core.NewEngine(gatewayConfig()),
		exEdge:    core.NewExporter(core.Limits{}, core.EvSIPBye),
		exGateway: core.NewExporter(core.Limits{}, core.EvRTPActivity),
		agg:       coop.NewAggregator(coop.AggregatorConfig{}),
	}
	c.edge.OnEvent(c.exEdge.Observe)
	c.gateway.OnEvent(c.exGateway.Observe)
	return c
}

// feed runs frames [from, to) through the probes, shipping digests every
// digestEvery frames of the capture.
func (c *coopPipeline) feed(frames []frame, from, to int) {
	for i := from; i < to; i++ {
		f := &frames[i]
		if f.edge {
			c.edge.HandleFrame(f.at, f.data)
		}
		if f.gateway {
			c.gateway.HandleFrame(f.at, f.data)
		}
		if (i+1)%digestEvery == 0 {
			c.ship()
		}
	}
}

// ship encodes each probe's pending digest and hands it to the aggregator.
func (c *coopPipeline) ship() {
	if d := c.exEdge.Flush(core.PointEdge); d != nil {
		c.agg.HandleDigest(srcEdge, core.EncodeDigest(d))
	}
	if d := c.exGateway.Flush(core.PointGateway); d != nil {
		c.agg.HandleDigest(srcGateway, core.EncodeDigest(d))
	}
}

func (c *coopPipeline) finish(end time.Duration) {
	c.ship()
	c.agg.Finalize(end)
}

type coopRun struct {
	elapsed time.Duration
	c       *coopPipeline
}

func runCoop(w *workload) coopRun {
	c := newCoop()
	start := time.Now()
	c.feed(w.frames, 0, len(w.frames))
	c.finish(w.frames[len(w.frames)-1].at)
	return coopRun{elapsed: time.Since(start), c: c}
}

func (r coopRun) check(w *workload, t *tally) {
	p := t.compare("edge alerts", r.c.edge.Alerts(), w.expected(byEdge))
	p = append(p, t.compare("gateway alerts", r.c.gateway.Alerts(), w.expected(byGateway))...)
	p = append(p, t.compare("aggregator alerts", r.c.agg.Alerts(), w.expected(byAgg))...)
	p = append(p, distillLedger("edge", r.c.edge.DistillerStats())...)
	p = append(p, distillLedger("gateway", r.c.gateway.DistillerStats())...)
	t.offered += len(w.frames)
	t.run("coop", p...)
}
