package core

import (
	"fmt"
	"net/netip"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"scidive/internal/capture"
	"scidive/internal/netsim"
	"scidive/internal/packet"
	"scidive/internal/sip"
)

// ShardedEngine runs the SCIDIVE pipeline across N worker shards, each
// owning a private Distiller, TrailStore, EventGenerator and RuleEngine.
// A single router stage peeks at every frame just deep enough to compute
// its session key — the same key the serial engine files trails under —
// and ships the frame to shard hash(key). Session affinity is the load-
// bearing invariant: a call's SIP dialog, its RTP media, its RTCP control
// and its accounting records all hash to one shard, so the stateful
// cross-protocol rules run unchanged inside each shard.
//
// State that spans sessions cannot live in a shard. The router therefore
// keeps its own session directory (a second sessionIndex fed by the same
// applySIP transitions the shards run) for media-flow attribution, owns
// its own instances of the protocol correlators — the hinter correlators
// (rtp's sequence-continuity trackers, im's source histories) judge every
// frame here in global arrival order and ship verdicts to the shards as
// RouteHints — and replicates registration bindings to every shard via
// ordered control messages. Port classification, sticky routing keys and
// shard-local budget zeroing all derive from the same correlator registry
// the shards dispatch through (see correlator.go).
//
// Alerts and events are tagged with (frame index, within-frame ordinal)
// on their shard and merged in that order, which reproduces the serial
// engine's output order exactly. The differential tests in
// sharded_diff_test.go hold the two engines to byte-identical alert and
// event streams.
//
// Failure containment: each worker is an actor that exclusively owns its
// pipeline and publishes results into a snapshot after every batch, so a
// panicking or stalled shard can never wedge readers. A panic quarantines
// the shard (its published alerts survive, subsequent frames are counted
// as shed, a shard-failure self-alert is raised) or, with
// Limits.RestartFailedShards, restarts it with fresh detection state.
// With Limits.ShedAfter set, a full shard queue sheds whole batches after
// a bounded wait instead of blocking the router, and with
// Limits.StallTimeout a watchdog quarantines shards that accept work but
// stop making progress. Every shed frame is accounted in Stats and
// ShardHealth and raises an ids-overload self-alert — degradation is a
// detectable event, never silent.
//
// HandleFrame may be called from multiple goroutines. The router retains
// a shipped frame until its shard has processed it, so feeders must not
// reuse frame buffers (netsim taps allocate per frame; ReplayCapture
// copies each frame because capture.Replay reuses one buffer — see the
// capture.FrameFunc aliasing contract). Call Close when done to stop the
// shard goroutines; Alerts, Events and Stats remain readable after
// Close.
type ShardedEngine struct {
	cfg     Config
	gen     GenConfig // normalized thresholds for router-side verdicts
	timeout time.Duration
	keepLog bool
	opts    []EngineOption // retained for shard restarts

	// liveRules is the active ruleset. ReloadRules swaps it atomically;
	// worker goroutines read it when building fresh shard engines (warm
	// and rolling restarts), so s.cfg stays immutable after construction.
	liveRules atomic.Pointer[[]Rule]

	// restoredStats/restoredDstats carry a restored portable checkpoint's
	// folded counters: Stats folds restoredStats in (with the fields that
	// live state re-counts zeroed — see RestoreSnapshot) and
	// DistillerStats folds restoredDstats in.
	// Written only by RestoreSnapshot, which requires a fresh engine.
	restoredStats  EngineStats
	restoredDstats DistillerStats

	mu       sync.Mutex // router stage: directory, reassembly, pending batches
	closed   bool
	frameIdx uint64
	idx      *sessionIndex
	reasm    *packet.Reassembler
	frags    fragMirror
	// streams is the router-owned stream-transport demux (TCP reassembly +
	// SIP framing). It is the ONLY stream state in the sharded engine:
	// shards receive already-extracted messages, so stream expiry and
	// eviction run once here, on the same push clock the serial distiller
	// uses, and can never diverge across shard counts.
	streams *streamMux
	// correlators are the router's own instances of the registry: port
	// claims, routing-key overrides, per-frame hints and router-owned
	// budget enforcement all run against these (their cross-session state
	// is mutated under mu; their eviction counters are atomics, read
	// lock-free by Stats).
	correlators []Correlator
	sticky      map[string]string // Call-ID -> routing key (pinned on first sighting)
	pending     [][]shardItem

	// dec is the router's decoder (ingest.go), used under mu: the shared
	// classifier with the registry's claims and ladder, so a reclassified
	// frame routes to the session its content belongs to exactly as the
	// shard's distiller will file it. SIP parses land in msg, which the
	// router never retains (only interned strings flow into the
	// directory), so classification allocates nothing per frame.
	dec decoder
	msg sip.Message
	// hints is per-frame scratch for the hinter passes: taking the
	// address of a local RouteHints forces a heap escape through the
	// hinter interfaces, so classify reuses this field instead.
	hints RouteHints

	frames           atomic.Uint64
	framesAfterClose atomic.Uint64

	// absorbed books the distiller ledger's frame-level fields for the
	// frames the router keeps from every shard: undecodable frames,
	// unclaimed traffic, buffered IP fragments and TCP segments (shards
	// receive the extracted messages instead). A fragment group that
	// completes and ships is taken back out, because the shard's
	// distiller counts its frames again. Written under mu, read lock-free
	// by DistillerStats.
	absorbed struct {
		frames, fragments, decodeError, ignored, streamed atomic.Int64
	}

	// Router-side Limits eviction counters (incremented under mu, read
	// lock-free by Stats).
	capSessions atomic.Uint64
	capFrags    atomic.Uint64
	capStreams  atomic.Uint64

	shardsFailed    atomic.Uint64
	shardsRestarted atomic.Uint64

	// Self-monitoring alerts (ids-overload, shard-failure). selfMu nests
	// inside mu (router-side sheds raise while routing) and is taken bare
	// by workers and the watchdog; nothing locks mu after selfMu.
	selfMu    sync.Mutex
	selfAlert []Alert
	selfTags  []mergeTag
	selfDedup map[string]int
	selfSeq   int

	watchStop chan struct{}

	// ing is the parallel ingest front end (Config.IngestRouters > 1):
	// decode lanes that peel the per-frame decode work off the routing
	// lock, plus a sequencer that replays their digests into the routing
	// path above in exact arrival order (see ingest.go). nil means the
	// historic fully synchronous router.
	ing       *ingestTier
	ingesters int

	workers []*shardWorker

	cbMu    sync.Mutex
	onAlert func(Alert)
	onEvent func(Event)
}

// fragIdent mirrors the reassembler's fragment-stream identity.
type fragIdent struct {
	src, dst netip.Addr
	proto    uint8
	id       uint16
}

// fragGroup buffers the original frames of one in-progress fragment
// stream so the whole datagram can ship to one shard once its session
// key is known. first mirrors the reassembler's eviction clock.
type fragGroup struct {
	frames []routedFrame
	first  time.Duration
}

// routedFrame is one raw frame with its capture time.
type routedFrame struct {
	at    time.Duration
	frame []byte
}

// fragMirror buffers the raw frames of in-progress IPv4 fragment groups
// on exactly the reassembler's lifetime, so a completed datagram ships to
// one shard whole and a checkpoint carries every in-progress group. The
// sharded router keeps one, and so does the serial engine's distiller,
// whose portable checkpoints must restore at any shard count.
type fragMirror map[fragIdent]*fragGroup

// insert runs one IPv4 packet through r, keeping the mirror in step. It
// returns the reassembler's results (the datagram's addresses and
// protocol are iph's, shared by all of its fragments) plus, when the
// packet completed a fragmented datagram, the group's earlier frames in
// arrival order. frame is retained while its group is in progress. A nil
// mirror only reassembles.
func (m fragMirror) insert(r *packet.Reassembler, iph *packet.IPv4Header, ipPayload []byte, at time.Duration, frame []byte) (body []byte, group []routedFrame, done bool, err error) {
	if m == nil {
		_, body, done, err = r.Insert(*iph, ipPayload, at)
		return body, nil, done, err
	}
	// The reassembler expires stale streams at every Insert; prune on the
	// same clock first so the two never disagree about which stream a
	// fragment belongs to. Capacity evictions arrive through evict.
	m.prune(at)
	fragmented := iph.FragOffset != 0 || iph.MoreFragments()
	key := fragIdent{src: iph.Src, dst: iph.Dst, proto: iph.Protocol, id: iph.ID}
	_, body, done, err = r.Insert(*iph, ipPayload, at)
	switch {
	case err != nil:
		// The reassembler creates its buffer before the oversize check but
		// after the alignment check; mirror that so group lifetimes track
		// buffer lifetimes exactly. The frame itself contributed nothing.
		alignErr := iph.FragOffset != 0 && len(ipPayload)%8 != 0 && iph.MoreFragments()
		if fragmented && !alignErr && m[key] == nil {
			m[key] = &fragGroup{first: at}
		}
	case !done:
		grp := m[key]
		if grp == nil {
			grp = &fragGroup{first: at}
			m[key] = grp
		}
		grp.frames = append(grp.frames, routedFrame{at: at, frame: frame})
	case fragmented:
		if grp := m[key]; grp != nil {
			group = grp.frames
			delete(m, key)
		}
	}
	return body, group, done, err
}

// prune drops groups on the reassembler's expiry schedule.
func (m fragMirror) prune(now time.Duration) {
	for k, grp := range m {
		if now-grp.first > packet.DefaultReassemblyTimeout {
			delete(m, k)
		}
	}
}

// evict drops the group of a stream the reassembler evicted to respect
// its capacity (its OnEvict hook).
func (m fragMirror) evict(id packet.FragID) {
	delete(m, fragIdent{src: id.Src, dst: id.Dst, proto: id.Proto, id: id.ID})
}

// install replaces the mirror's groups with a checkpoint's.
func (m fragMirror) install(groups fragMirror) {
	clear(m)
	for k, grp := range groups {
		m[k] = grp
	}
}

// shippedMsg is one stream-extracted SIP message (or tunneled media
// chunk, see streamKind) bound for a shard, with the router's
// per-message hints. The payload is copied at ship time: the router's
// framing buffers recycle on the flow's next segment, while the shard
// consumes the item asynchronously.
type shippedMsg struct {
	at       time.Duration
	src, dst netip.AddrPort
	payload  []byte
	hints    RouteHints
	kind     streamKind
}

// mergeTag orders shard output globally: frame index, then the event's
// ordinal within that frame. Frames are routed whole, so tags from
// different shards never collide. Self-monitoring alerts use a sub far
// above any per-frame ordinal so they sort after detections at the same
// frame.
type mergeTag struct {
	idx uint64
	sub int
}

const selfAlertSub = 1 << 30

type itemKind uint8

const (
	itemFrame itemKind = iota
	itemGroup
	itemStream
	itemBinding
	itemEvict
	itemExpire
	itemFlush
	itemInspect
	itemSnapshot
	itemRestore
	itemReload
	itemRestart
)

// shardItem is one unit of work on a shard's queue: a routed frame (or
// reassembled fragment group), a replicated binding, a capacity-eviction
// or expiry broadcast, or a flush/inspect marker.
type shardItem struct {
	kind    itemKind
	idx     uint64
	at      time.Duration
	frame   []byte
	group   []routedFrame
	msgs    []shippedMsg
	hints   RouteHints
	aor     string
	ip      netip.Addr
	session string
	ack     chan struct{}
	// snap receives the worker's exported body (itemSnapshot; left nil by
	// a quarantined shard); restore carries a bound body to install
	// (itemRestore). Both are checkpoint markers, acked like
	// flush/inspect.
	snap    **rawEngineBody
	restore *workerRestore
	// rules and dropped carry a live ruleset reload (itemReload): the new
	// ruleset to install and the shared counter of dropped partial
	// matches. Acked like flush/inspect.
	rules   []Rule
	dropped *atomic.Int64
}

// Worker health states.
const (
	stateHealthy uint32 = iota
	statePanicked
	stateStalled
)

func stateName(s uint32) string {
	switch s {
	case statePanicked:
		return "panicked"
	case stateStalled:
		return "stalled"
	default:
		return "healthy"
	}
}

// shardResults is a worker's published snapshot. Readers see only this,
// never the worker's live pipeline, so a stuck worker cannot block them.
type shardResults struct {
	stats     EngineStats
	dstats    DistillerStats
	alerts    []Alert
	alertTags []mergeTag
	events    []Event
	eventTags []mergeTag
	trails    []trailKey
}

// shardWorker owns one shard. The pipeline fields below resMu are
// private to the worker goroutine (actor model); everyone else reads the
// published snapshot under resMu and the atomics.
type shardWorker struct {
	id    int
	owner *ShardedEngine
	ch    chan []shardItem
	done  chan struct{}

	// Worker-private pipeline state.
	eng       *Engine
	alertTags []mergeTag
	eventTags []mergeTag
	curTag    mergeTag
	sub       int
	faultSeq  uint64
	trimmedA  int // rule-engine alert evictions mirrored into alertTags
	trimmedE  int // event-log evictions mirrored into eventTags
	base      shardResults
	// lastEngineSnap is the encoded engine body from the most recent
	// checkpoint (taken or restored) or rolling restart, kept for warm
	// restarts: when RestartFailedShards replaces a panicked engine, the
	// fresh one is rehydrated from this instead of starting blind. It is
	// the one body kept as bytes, a deep copy that outlives the engine
	// that wrote it. Worker-private.
	lastEngineSnap []byte
	pubVer         int // rules.version at last alert publish
	pubEvict       int // engine EventsEvicted mirrored into pub

	resMu sync.Mutex
	pub   shardResults

	state       atomic.Uint32
	beat        atomic.Int64 // wall-clock heartbeat (UnixNano)
	trackBeat   bool
	enqueuedB   atomic.Uint64
	completedB  atomic.Uint64
	routedF     atomic.Uint64
	processedF  atomic.Uint64
	shedFrames  atomic.Uint64
	shedBatches atomic.Uint64
}

const (
	// shardBatchSize frames are accumulated per shard before a channel
	// send, amortizing synchronization on the hot path.
	shardBatchSize = 64
	// shardQueueDepth bounds each shard's channel; a full queue blocks
	// the router (backpressure) or, with Limits.ShedAfter, sheds.
	shardQueueDepth = 8
)

// shardBatchPool recycles batch slices between the router (which fills
// them) and the consumer that finishes them — a worker, or the router's
// own shed path. Returned batches are zeroed first so no frame bytes or
// fragment groups are retained past processing.
var shardBatchPool = sync.Pool{
	New: func() any {
		b := make([]shardItem, 0, shardBatchSize)
		return &b
	},
}

// getBatch returns an empty batch with shardBatchSize capacity.
func getBatch() []shardItem {
	return (*shardBatchPool.Get().(*[]shardItem))[:0]
}

// putBatch zeroes a finished batch (dropping its frame and group
// references) and recycles it. Safe on batches that grew past
// shardBatchSize (markers appended by Flush/Close/TrailCounts).
func putBatch(b []shardItem) {
	clear(b)
	b = b[:0]
	shardBatchPool.Put(&b)
}

// NewShardedEngine builds a sharded IDS instance. shards <= 0 uses
// runtime.GOMAXPROCS(0). The configuration is shared by every shard.
// DirectTrailMatching is a single-store ablation and is not supported
// sharded.
func NewShardedEngine(cfg Config, shards int, opts ...EngineOption) *ShardedEngine {
	if cfg.DirectTrailMatching {
		panic("core: ShardedEngine does not support DirectTrailMatching; use Engine for the ablation")
	}
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxTrailLen == 0 {
		cfg.MaxTrailLen = 4096
	}
	if cfg.SessionTimeout == 0 {
		cfg.SessionTimeout = 10 * time.Minute
	}
	if cfg.Rules == nil {
		cfg.Rules = DefaultRuleset()
	}
	s := &ShardedEngine{
		cfg:         cfg,
		gen:         cfg.Gen.withDefaults(),
		timeout:     cfg.SessionTimeout,
		opts:        opts,
		idx:         newSessionIndex(true),
		reasm:       packet.NewReassembler(0),
		frags:       make(fragMirror),
		correlators: buildCorrelators(cfg.Correlators, cfg.Gen.withDefaults()),
		sticky:      make(map[string]string),
		selfDedup:   make(map[string]int),
		pending:     make([][]shardItem, shards),
		workers:     make([]*shardWorker, shards),
	}
	s.dec = decoder{claimers: s.correlators, ladder: ladderOf(s.correlators), sink: sipSink{parser: sip.NewParser(), into: &s.msg}}
	s.liveRules.Store(&s.cfg.Rules)
	// The router's correlator instances enforce the full (global) budget;
	// shard instances get those caps zeroed (see shardLocalLimits).
	for _, c := range s.correlators {
		if b, ok := c.(budgeted); ok {
			b.setLimits(cfg.Limits)
		}
	}
	// The router enforces the global caps itself; session evictions are
	// broadcast so shard tables drop the same victim at the same stream
	// position the serial generator would.
	s.idx.maxSessions = cfg.Limits.MaxSessions
	s.idx.onCapEvict = func(id string) {
		s.capSessions.Add(1)
		delete(s.sticky, id)
		for i := range s.workers {
			s.appendItemLocked(i, shardItem{kind: itemEvict, session: id})
		}
	}
	s.reasm.SetLimit(cfg.Limits.MaxFragGroups)
	s.reasm.OnEvict(func(id packet.FragID) {
		s.capFrags.Add(1)
		s.frags.evict(id)
	})
	s.streams = newStreamMux()
	s.streams.sniff = s.dec.ladder.tunnelSniff
	s.streams.reasm.SetLimit(cfg.Limits.MaxStreams)
	s.streams.onEvict = func(id packet.StreamID, at time.Duration) {
		s.capStreams.Add(1)
		s.raiseSelf(RuleIDSOverload, "streams",
			"tcp stream reassembly state evicted to respect MaxStreams (possible mid-message loss)", at)
	}
	now := time.Now().UnixNano()
	for i := range s.workers {
		w := &shardWorker{
			id:        i,
			owner:     s,
			ch:        make(chan []shardItem, shardQueueDepth),
			done:      make(chan struct{}),
			eng:       s.newShardEngine(),
			trackBeat: cfg.Limits.StallTimeout > 0,
		}
		w.beat.Store(now)
		s.wireWorker(w)
		s.keepLog = w.eng.keepLog
		s.pending[i] = getBatch()
		s.workers[i] = w
		go w.run()
	}
	if cfg.Limits.StallTimeout > 0 {
		s.watchStop = make(chan struct{})
		go s.watchdog(cfg.Limits.StallTimeout)
	}
	s.ingesters = cfg.IngestRouters
	if s.ingesters < 1 {
		s.ingesters = 1
	}
	if s.ingesters > 1 {
		s.ing = newIngestTier(s, s.ingesters)
	}
	return s
}

// newShardEngine builds one shard's private engine, with the router-owned
// caps zeroed out (see shardLocalLimits).
func (s *ShardedEngine) newShardEngine() *Engine {
	wcfg := s.cfg
	wcfg.Rules = *s.liveRules.Load()
	wcfg.Limits = shardLocalLimits(s.correlators, wcfg.Limits)
	eng := NewEngine(wcfg, s.opts...)
	// Shard engines never own router-side routing state: the router keeps
	// the sticky routing keys, buffered fragment groups and the stream
	// mux, so the serial engine's mirrors stay nil here (nil-map deletes
	// in the eviction hooks are no-ops).
	eng.gen.sticky = nil
	eng.distiller.frags = nil
	eng.distiller.streams = nil
	return eng
}

// wireWorker hooks a (possibly fresh) shard engine's alert stream to the
// worker's merge tags and the user callback.
func (s *ShardedEngine) wireWorker(w *shardWorker) {
	w.eng.rules.OnAlert(func(a Alert) {
		w.alertTags = append(w.alertTags, w.curTag)
		s.cbMu.Lock()
		fn := s.onAlert
		s.cbMu.Unlock()
		if fn != nil {
			fn(a)
		}
	})
	w.eng.OnEvent(func(ev Event) {
		s.cbMu.Lock()
		fn := s.onEvent
		s.cbMu.Unlock()
		if fn != nil {
			fn(ev)
		}
	})
}

// Shards returns the number of worker shards.
func (s *ShardedEngine) Shards() int { return len(s.workers) }

// Ingesters returns the number of parallel ingest routers (1 means the
// single synchronous router).
func (s *ShardedEngine) Ingesters() int { return s.ingesters }

// ShardOf reports which shard the given routing key maps to with n
// shards. Exported so chaos tests and capacity planning can predict
// frame placement; for calls the routing key is the Call-ID, for IM
// sender sessions "im:" + AOR.
func ShardOf(key string, n int) int { return shardOf(key, n) }

// OnAlert registers a callback for new alerts. It fires from shard
// goroutines (and the router, for self-monitoring alerts) in shard-local
// order; use Alerts for the merged stream. The callback must not call
// back into the engine.
func (s *ShardedEngine) OnAlert(fn func(Alert)) {
	s.cbMu.Lock()
	s.onAlert = fn
	s.cbMu.Unlock()
}

// OnEvent registers a callback for generated events. Like OnAlert it
// fires from shard goroutines in shard-local order — the merged global
// order is only available from Events() after Flush. A cooperative
// exporter attached here must therefore tolerate inter-shard reordering
// (the aggregator's deterministic merge re-sorts by timestamp). The
// callback must be fast and must not call back into the engine.
func (s *ShardedEngine) OnEvent(fn func(Event)) {
	s.cbMu.Lock()
	s.onEvent = fn
	s.cbMu.Unlock()
}

// HandleFrame routes one observed frame. It is netsim.Tap compatible and
// safe for concurrent use. Frames arriving after Close are dropped and
// counted in Stats().FramesAfterClose.
func (s *ShardedEngine) HandleFrame(at time.Duration, frame []byte) {
	if s.ing != nil {
		s.ing.feed(at, frame)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.framesAfterClose.Add(1)
		return
	}
	s.frames.Add(1)
	s.frameIdx++
	if s.frameIdx%gcEvery == 0 {
		s.expireLocked(at)
	}
	s.routeLocked(s.frameIdx, at, frame)
}

// AttachTap subscribes the engine to all hub traffic of a network.
func (s *ShardedEngine) AttachTap(n *netsim.Network) {
	n.AddTap(s.HandleFrame)
}

// ReplayCapture feeds a recorded SCAP capture through the engine. Call
// Flush (or Alerts/Events, which flush) before reading results. Each
// frame is copied before routing: capture.Replay reuses one frame buffer
// and the router retains shipped frames until their shard processes
// them.
func (s *ShardedEngine) ReplayCapture(r *capture.Reader) error {
	err := capture.Replay(r, func(at time.Duration, frame []byte) {
		s.HandleFrame(at, append([]byte(nil), frame...))
	})
	if err != nil {
		return fmt.Errorf("core: replay: %w", err)
	}
	return nil
}

// expireLocked mirrors the serial engine's periodic session sweep: the
// router expires its own directory and broadcasts the sweep to every
// shard at the same position in the frame stream, so shard-local tables
// evict exactly when the serial table would.
func (s *ShardedEngine) expireLocked(at time.Duration) {
	evicted := s.idx.expire(at, s.timeout, func(id string) { delete(s.sticky, id) })
	if evicted > 0 {
		for _, c := range s.correlators {
			if ex, ok := c.(expirer); ok {
				ex.onExpire(at, len(s.idx.sessions))
			}
		}
	}
	for i := range s.workers {
		s.appendItemLocked(i, shardItem{kind: itemExpire, at: at})
	}
}

// routeLocked decodes a frame, updates the routing directory, and ships
// the frame (with hints) to its shard. Every drop point below matches a
// path where the serial distiller produces no footprint, so dropped
// frames are exactly the frames no shard needs.
func (s *ShardedEngine) routeLocked(idx uint64, at time.Duration, frame []byte) {
	ef, err := packet.UnmarshalEthernet(frame)
	if err != nil || ef.Type != packet.EtherTypeIPv4 {
		s.absorb(&s.absorbed.decodeError)
		return
	}
	iph, ipPayload, err := packet.UnmarshalIPv4(ef.Payload)
	if err != nil {
		s.absorb(&s.absorbed.decodeError)
		return
	}
	body, group, done, err := s.frags.insert(s.reasm, &iph, ipPayload, at, frame)
	if err != nil {
		s.absorb(&s.absorbed.decodeError)
		return
	}
	if !done {
		s.absorb(&s.absorbed.fragments)
		return
	}
	if iph.Protocol == packet.ProtoTCP {
		s.routeStreamLocked(idx, at, iph.Src, iph.Dst, body)
		return
	}
	d := ingDigest{at: at, frame: frame}
	s.dec.datagram(iph.Protocol, iph.Src, iph.Dst, body, &d)
	s.shipDigestLocked(idx, &d, group)
}

// shipDigestLocked is the stateful half of datagram routing, shared by
// the synchronous router and the ingest sequencer: it classifies a
// decoded datagram against the directory and queues the frame — or the
// fragment group it completed — for its shard.
func (s *ShardedEngine) shipDigestLocked(idx uint64, d *ingDigest, group []routedFrame) {
	switch d.kind {
	case ingClock:
		s.absorb(&s.absorbed.ignored)
		return
	case ingBadUDP:
		s.absorb(&s.absorbed.decodeError)
		return
	}
	routeKey, hints := s.classifyDigestLocked(d, "")
	shard := shardOf(s.resolveRouteLocked(routeKey), len(s.workers))
	if group == nil {
		s.appendItemLocked(shard, shardItem{kind: itemFrame, idx: idx, at: d.at, frame: d.frame, hints: hints})
		return
	}
	// The shard's distiller re-counts the group's buffered fragments.
	s.absorbed.frames.Add(-int64(len(group)))
	s.absorbed.fragments.Add(-int64(len(group)))
	group = append(group, routedFrame{at: d.at, frame: d.frame})
	s.appendItemLocked(shard, shardItem{kind: itemGroup, idx: idx, group: group, hints: hints})
}

// classifyDigestLocked runs the stateful classification of one decoded
// datagram or stream message, returning its routing key and the hints
// its shard needs. flowKey is the stream's routing key for
// stream-carried messages ("" for datagrams).
func (s *ShardedEngine) classifyDigestLocked(d *ingDigest, flowKey string) (string, RouteHints) {
	switch d.proto {
	case ProtoSIP:
		return s.classifySIPMsgLocked(d.at, d.src, d.dst, d.msg, flowKey)
	case ProtoAccounting:
		return s.classifyAcctLocked(d.dst, d.callID, d.start, d.ok), RouteHints{}
	case ProtoRTP:
		return s.classifyRTPSeqLocked(d.at, d.src, d.dst, d.seq, d.ok)
	default:
		return s.classifyRTCPFlowLocked(d.at, d.src, d.dst, d.ok)
	}
}

// classifyAcctLocked is the stateful half of accounting classification.
// ok=false means the transaction did not parse and is filed raw.
func (s *ShardedEngine) classifyAcctLocked(dst netip.AddrPort, callID string, start, ok bool) string {
	if !ok {
		return s.idx.endpointKey('w', "raw:", dst)
	}
	if start {
		// The generator creates session state for billing STARTs.
		s.idx.core(callID)
	}
	return callID
}

// classifySIPMsgLocked is the stateful half of SIP classification: it
// takes a parsed message (nil for an unparseable payload on a SIP port)
// and runs the directory transition, hinters, binding replication and
// sticky-key pinning (pinRouteKey; flowKey is the stream's routing key
// for stream-carried messages).
func (s *ShardedEngine) classifySIPMsgLocked(at time.Duration, src, dst netip.AddrPort, m *sip.Message, flowKey string) (string, RouteHints) {
	if m == nil {
		return s.idx.endpointKey('w', "raw:", dst), RouteHints{}
	}
	st, out := s.idx.applySIP(m, at, src)
	// Hinter correlators judge the sighting against their router-owned
	// state here, in arrival order, exactly as the serial correlators
	// would (the im correlator's source-history verdict, for one).
	s.hints = RouteHints{}
	for _, c := range s.correlators {
		if sh, ok := c.(sipHinter); ok {
			sh.sipHint(at, src, dst, m, out, &s.hints)
		}
	}
	if out.regOK && out.bindingIP.IsValid() {
		// Replicate the binding to every shard, ordered with the frame
		// stream, so each shard's directory view matches the serial one.
		for i := range s.workers {
			s.appendItemLocked(i, shardItem{kind: itemBinding, aor: out.regAOR, ip: out.bindingIP})
		}
	}
	if out.established {
		for _, c := range s.correlators {
			if o, ok := c.(establishObserver); ok {
				o.onEstablished(st)
			}
		}
	}
	s.idx.touch(st.callID, at)
	// A correlator with cross-dialog state overrides the default Call-ID
	// key (the im correlator routes MESSAGE dialogs by "im:" + sender
	// AOR, the options-scan correlator routes OPTIONS probes by source)
	// so its state colocates on one shard across Call-IDs.
	return pinRouteKey(s.sticky, s.correlators, st.callID, m, out, src, flowKey), s.hints
}

// routeStreamLocked is the stream-transport arm of the router: a TCP
// segment feeds the router-owned mux, and every SIP message it completes
// is classified here in arrival order, copied, and shipped to the flow's
// shard as ONE item — the messages' merge ordinals stay contiguous, so
// coalesced messages keep the serial engine's output order. TCP frames
// that complete no message (handshakes, partial messages, unclaimed
// ports) ship nothing, exactly the frames the serial engine produces no
// footprint for. Only the hints of each message matter (it routes with
// its flow), but the directory transitions run exactly as they would for
// the equivalent datagram, in global arrival order.
func (s *ShardedEngine) routeStreamLocked(idx uint64, at time.Duration, srcIP, dstIP netip.Addr, seg []byte) {
	th, payload, err := packet.PeekTCP(srcIP, dstIP, seg)
	if err != nil {
		s.absorb(&s.absorbed.decodeError)
		return
	}
	if proto, claimed := claimPortOf(s.correlators, th.SrcPort, th.DstPort); !claimed || proto != ProtoSIP {
		s.absorb(&s.absorbed.ignored)
		return
	}
	s.absorb(&s.absorbed.streamed)
	src := netip.AddrPortFrom(srcIP, th.SrcPort)
	dst := netip.AddrPortFrom(dstIP, th.DstPort)
	s.streams.push(at, src, dst, th, payload)
	msgs := s.streams.drain()
	if len(msgs) == 0 {
		return
	}
	flowKey := streamFlowKey(src, dst)
	ship := make([]shippedMsg, len(msgs))
	var d ingDigest
	for i, sm := range msgs {
		s.dec.message(sm, &d)
		_, hints := s.classifyDigestLocked(&d, flowKey)
		ship[i] = shippedMsg{at: sm.at, src: sm.src, dst: sm.dst,
			payload: append([]byte(nil), sm.payload...), hints: hints, kind: sm.kind}
	}
	s.appendItemLocked(shardOf(flowKey, len(s.workers)),
		shardItem{kind: itemStream, idx: idx, at: at, msgs: ship})
}

// absorb books one frame the router keeps from every shard under the
// distiller-ledger counter it terminates in.
func (s *ShardedEngine) absorb(terminal *atomic.Int64) {
	s.absorbed.frames.Add(1)
	terminal.Add(1)
}

// classifyRTPSeqLocked is the stateful half of RTP classification: only
// the peeked sequence number (and whether the peek succeeded) is needed
// from the datagram.
func (s *ShardedEngine) classifyRTPSeqLocked(at time.Duration, src, dst netip.AddrPort, seq uint16, ok bool) (string, RouteHints) {
	if !ok {
		// Garbage on a media port: the serial generator attributes the
		// event to the session negotiating this endpoint.
		sess := s.idx.mediaDstSession(dst)
		if sess == "" {
			sess = s.idx.endpointKey('w', "raw:", dst)
		}
		return sess, RouteHints{Session: sess}
	}
	session := s.idx.flowSession(src, dst)
	if session == "" {
		session = s.idx.endpointKey('r', "rtp:", dst)
	}
	// The rtp correlator's router instance tracks continuity across all
	// shards in global frame order and ships the verdict as a hint.
	s.hints = RouteHints{Session: session}
	for _, c := range s.correlators {
		if rh, isHinter := c.(rtpHinter); isHinter {
			rh.rtpHint(at, dst, seq, &s.hints)
		}
	}
	s.idx.touch(session, at)
	return session, s.hints
}

// classifyRTCPFlowLocked is the stateful half of RTCP classification:
// the compound peek only validates framing, so the lookup needs nothing
// but the verdict.
func (s *ShardedEngine) classifyRTCPFlowLocked(at time.Duration, src, dst netip.AddrPort, ok bool) (string, RouteHints) {
	if !ok {
		// Undecodable on an RTCP port: filed raw, no session attribution.
		return s.idx.endpointKey('w', "raw:", dst), RouteHints{}
	}
	session := s.idx.rtcpFlowSession(src, dst)
	if session == "" {
		session = s.idx.endpointKey('c', "rtcp:", dst)
	}
	s.idx.touch(session, at)
	return session, RouteHints{Session: session}
}

// appendItemLocked queues one item for a shard, flushing the batch when
// full.
func (s *ShardedEngine) appendItemLocked(shard int, it shardItem) {
	w := s.workers[shard]
	switch it.kind {
	case itemFrame, itemStream:
		w.routedF.Add(1)
	case itemGroup:
		w.routedF.Add(uint64(len(it.group)))
	}
	s.pending[shard] = append(s.pending[shard], it)
	if len(s.pending[shard]) >= shardBatchSize {
		s.flushShardLocked(shard)
	}
}

// flushShardLocked hands a shard its pending batch. Quarantined shards
// shed immediately; healthy shards get a non-blocking send, then either
// the historic blocking send (ShedAfter == 0) or a bounded wait that
// sheds the whole batch on expiry.
func (s *ShardedEngine) flushShardLocked(shard int) {
	if len(s.pending[shard]) == 0 {
		return
	}
	batch := s.pending[shard]
	s.pending[shard] = getBatch()
	w := s.workers[shard]
	if w.state.Load() != stateHealthy {
		s.shedBatchLocked(shard, batch)
		return
	}
	select {
	case w.ch <- batch:
		w.noteEnqueued()
		return
	default:
	}
	if s.cfg.Limits.ShedAfter <= 0 {
		w.ch <- batch // historic backpressure: block until the shard drains
		w.noteEnqueued()
		return
	}
	t := time.NewTimer(s.cfg.Limits.ShedAfter)
	defer t.Stop()
	select {
	case w.ch <- batch:
		w.noteEnqueued()
	case <-t.C:
		s.shedBatchLocked(shard, batch)
	}
}

// noteEnqueued accounts a successful batch send. It also refreshes the
// heartbeat: the stall clock for newly accepted work starts at enqueue,
// so an idle worker that simply hasn't been scheduled yet is not
// mistaken for a stalled one. A genuinely stuck shard stops accepting
// sends once its queue fills, after which the beat goes stale and the
// watchdog fires.
func (w *shardWorker) noteEnqueued() {
	w.enqueuedB.Add(1)
	if w.trackBeat {
		w.beat.Store(time.Now().UnixNano())
	}
}

// shedBatchLocked drops a whole batch: frames are counted as shed and an
// ids-overload self-alert records the loss. Control items (bindings,
// expiries, evictions) in a shed batch are lost too — acceptable
// degradation for an already-overloaded or failed shard. Markers
// (flush, inspect, snapshot, restore, reload, restart) bound for a
// healthy shard are never shed: they are delivered in a batch of their
// own, behind everything already queued, so a Flush returns only once
// the batches before it have run. A quarantined shard's markers are
// acked here so no reader waits on dropped work.
func (s *ShardedEngine) shedBatchLocked(shard int, batch []shardItem) {
	w := s.workers[shard]
	var markers []shardItem
	if w.state.Load() == stateHealthy {
		n := 0
		for _, it := range batch {
			if it.ack == nil {
				batch[n] = it
				n++
				continue
			}
			if markers == nil {
				markers = getBatch()
			}
			markers = append(markers, it)
		}
		clear(batch[n:])
		batch = batch[:n]
	}
	n, at := shedItems(batch)
	w.shedBatches.Add(1)
	if n > 0 {
		w.shedFrames.Add(uint64(n))
		s.raiseSelf(RuleIDSOverload, fmt.Sprintf("shard:%d", shard),
			fmt.Sprintf("shed %d frames bound for shard %d (queue stalled or shard quarantined)", n, shard), at)
	}
	putBatch(batch)
	if markers != nil {
		s.deliverMarkersLocked(w, markers)
	}
}

// deliverMarkersLocked queues a batch of markers behind the shard's
// backlog, blocking like the ShedAfter == 0 backpressure path. It gives
// up, acking the markers, only if the shard is quarantined meanwhile (a
// stalled shard may never drain its queue).
func (s *ShardedEngine) deliverMarkersLocked(w *shardWorker, markers []shardItem) {
	tick := time.NewTicker(200 * time.Microsecond)
	defer tick.Stop()
	for {
		select {
		case w.ch <- markers:
			w.noteEnqueued()
			return
		case <-tick.C:
			if w.state.Load() != stateHealthy {
				shedItems(markers)
				return
			}
		}
	}
}

// shedItems counts the frames in a run of items and acks its markers,
// returning the frame count and the timestamp of the last dropped frame.
func shedItems(items []shardItem) (frames int, at time.Duration) {
	for i := range items {
		switch items[i].kind {
		case itemFrame, itemStream:
			frames++
			at = items[i].at
		case itemGroup:
			frames += len(items[i].group)
			if n := len(items[i].group); n > 0 {
				at = items[i].group[n-1].at
			}
		case itemFlush, itemInspect, itemSnapshot, itemRestore, itemReload, itemRestart:
			close(items[i].ack)
		}
	}
	return frames, at
}

// raiseSelf records a self-monitoring alert, deduplicated per (rule,
// session) like RuleEngine.raise. Safe from the router (under mu), the
// watchdog, and shard workers.
func (s *ShardedEngine) raiseSelf(rule, session, detail string, at time.Duration) {
	s.selfMu.Lock()
	key := rule + "|" + session
	if i, ok := s.selfDedup[key]; ok {
		s.selfAlert[i].Count++
		s.selfMu.Unlock()
		return
	}
	a := Alert{At: at, Rule: rule, Severity: SeverityCritical, Session: session, Detail: detail, Count: 1}
	s.selfDedup[key] = len(s.selfAlert)
	s.selfAlert = append(s.selfAlert, a)
	s.selfTags = append(s.selfTags, mergeTag{idx: s.frames.Load(), sub: selfAlertSub + s.selfSeq})
	s.selfSeq++
	s.selfMu.Unlock()
	s.cbMu.Lock()
	fn := s.onAlert
	s.cbMu.Unlock()
	if fn != nil {
		fn(a)
	}
}

// noteShardPanic quarantine-accounts a worker panic.
func (s *ShardedEngine) noteShardPanic(w *shardWorker, at time.Duration, failure any) {
	s.shardsFailed.Add(1)
	s.raiseSelf(RuleShardFailure, fmt.Sprintf("shard:%d", w.id),
		fmt.Sprintf("worker panic: %v (published alerts retained, subsequent frames shed)", failure), at)
}

// watchdog quarantines shards that accepted work but stopped making
// progress for longer than timeout (wall clock). Detects stalls —
// infinite loops, blocking decoders — that recover() never sees.
func (s *ShardedEngine) watchdog(timeout time.Duration) {
	period := timeout / 4
	if period < time.Millisecond {
		period = time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-s.watchStop:
			return
		case <-tick.C:
			now := time.Now().UnixNano()
			for _, w := range s.workers {
				if w.state.Load() != stateHealthy {
					continue
				}
				if w.enqueuedB.Load() <= w.completedB.Load() {
					continue
				}
				if now-w.beat.Load() > int64(timeout) {
					w.state.Store(stateStalled)
					s.shardsFailed.Add(1)
					s.raiseSelf(RuleShardFailure, fmt.Sprintf("shard:%d", w.id),
						fmt.Sprintf("no progress for %v with work queued; quarantined", timeout), 0)
				}
			}
		}
	}
}

// Flush delivers all queued work and blocks until every shard has
// processed (or shed) everything enqueued before the call. With a
// parallel ingest front end, the ingest lanes are drained first so every
// frame fed before the call has been sequenced into its shard queue.
// Shards the watchdog quarantined as stalled are not waited for.
func (s *ShardedEngine) Flush() {
	if s.ing != nil {
		s.ing.drain()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	acks := make([]chan struct{}, len(s.workers))
	for i := range s.workers {
		ack := make(chan struct{})
		acks[i] = ack
		s.pending[i] = append(s.pending[i], shardItem{kind: itemFlush, ack: ack})
		s.flushShardLocked(i)
	}
	s.mu.Unlock()
	for i, ack := range acks {
		awaitAck(s.workers[i], ack)
	}
}

// ReloadRules swaps the active ruleset live, at one consistent frame
// boundary: the reload marker is enqueued on every shard under a single
// routing-lock hold, so no frame is ever processed under the old rules
// on one shard and the new rules on another, and no frame is lost. nil
// reloads the default ruleset. In-flight partial matches carry forward
// for rules whose canonical text is unchanged and are dropped for
// removed or edited rules; when any were dropped, a rule-reload
// self-alert records the loss (see RuleRuleReload). Returns the dropped
// count. Raised alerts and dedup suppression survive the reload, exactly
// as they survive a checkpoint restore.
func (s *ShardedEngine) ReloadRules(rules []Rule) (int, error) {
	if rules == nil {
		rules = DefaultRuleset()
	}
	if s.ing != nil {
		s.ing.drain()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, fmt.Errorf("core: reload rules: engine is closed")
	}
	var dropped atomic.Int64
	acks := make([]chan struct{}, len(s.workers))
	for i := range s.workers {
		ack := make(chan struct{})
		acks[i] = ack
		s.pending[i] = append(s.pending[i], shardItem{kind: itemReload, rules: rules, dropped: &dropped, ack: ack})
		s.flushShardLocked(i)
	}
	s.liveRules.Store(&rules)
	s.mu.Unlock()
	for i, ack := range acks {
		awaitAck(s.workers[i], ack)
	}
	n := int(dropped.Load())
	if n > 0 {
		s.raiseSelf(RuleRuleReload, "rules",
			fmt.Sprintf("ruleset reloaded: %d in-flight partial matches dropped (rules removed or edited)", n), 0)
	}
	return n, nil
}

// RollingRestart restarts every healthy shard's engine one at a time,
// warm: each shard is drained to a quiescent point by a restart marker
// (everything routed to it before the marker is processed first), its
// detection state is exported, and a fresh engine is rehydrated from
// that state before the next shard starts. Frames keep flowing to the
// other shards throughout, and the restarted shard's outputs are
// indistinguishable from an uninterrupted run. After each shard comes
// back its routed == processed + shed ledger is reconciled; shards that
// are quarantined, or that fail mid-drain, are skipped (the failure
// path accounts them). Restarts count in Stats().ShardsRestarted.
func (s *ShardedEngine) RollingRestart() error {
	if s.ing != nil {
		s.ing.drain()
	}
	for i := range s.workers {
		w := s.workers[i]
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return fmt.Errorf("core: rolling restart: engine is closed")
		}
		if w.state.Load() != stateHealthy {
			s.mu.Unlock()
			continue
		}
		routedBefore := w.routedF.Load()
		ack := make(chan struct{})
		s.pending[i] = append(s.pending[i], shardItem{kind: itemRestart, ack: ack})
		s.flushShardLocked(i)
		s.mu.Unlock()
		awaitAck(w, ack)
		if w.state.Load() != stateHealthy {
			continue // failed mid-drain: quarantined and accounted by the failure path
		}
		if got := w.processedF.Load() + w.shedFrames.Load(); got < routedBefore {
			return fmt.Errorf("core: rolling restart: shard %d ledger failed to reconcile (routed %d before restart, processed+shed %d after)",
				i, routedBefore, got)
		}
	}
	return nil
}

// awaitAck waits for a worker to ack a marker, giving up if the worker
// is quarantined as stalled (its marker may be stuck behind the stall).
func awaitAck(w *shardWorker, ack chan struct{}) {
	for {
		select {
		case <-ack:
			return
		case <-time.After(200 * time.Microsecond):
			if w.state.Load() == stateStalled {
				return
			}
		}
	}
}

// Close flushes remaining work and stops the shard goroutines. Results
// remain readable; subsequent HandleFrame calls are dropped and counted.
// Stalled shards are abandoned, not awaited (their goroutines exit when
// the stall clears, since the queue is closed).
func (s *ShardedEngine) Close() {
	if s.ing != nil {
		// Stop the ingest tier first: in-flight frames are sequenced into
		// the shard queues and further feeds are counted as after-close.
		s.ing.close()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.watchStop != nil {
		close(s.watchStop)
	}
	for i := range s.workers {
		s.flushShardLocked(i)
		close(s.workers[i].ch)
	}
	s.mu.Unlock()
	for _, w := range s.workers {
		if w.state.Load() == stateStalled {
			continue
		}
		<-w.done
	}
}

// Stats returns a snapshot of the merged engine counters. It is safe to
// call concurrently with HandleFrame and never blocks on a shard: it
// reads each worker's last published snapshot, so it reflects batches
// shards have completed, plus every frame the router has accepted.
func (s *ShardedEngine) Stats() EngineStats {
	st := EngineStats{
		Frames:             int(s.frames.Load()),
		FramesAfterClose:   int(s.framesAfterClose.Load()),
		SessionsCapEvicted: int(s.capSessions.Load()),
		FragGroupsEvicted:  int(s.capFrags.Load()),
		StreamsEvicted:     int(s.capStreams.Load()),
		ShardsFailed:       int(s.shardsFailed.Load()),
		ShardsRestarted:    int(s.shardsRestarted.Load()),
	}
	// Router-owned correlator caps (IM histories, sequence trackers, …)
	// are enforced against the router's instances; their counters are
	// atomics, so this read is lock-free.
	for _, c := range s.correlators {
		if b, ok := c.(budgeted); ok {
			b.contributeStats(&st)
		}
	}
	maxBind := 0
	for _, w := range s.workers {
		w.resMu.Lock()
		es := w.pub.stats
		w.resMu.Unlock()
		st.Footprints += es.Footprints
		st.Events += es.Events
		st.Alerts += es.Alerts
		st.SessionsEvicted += es.SessionsEvicted
		st.EventsEvicted += es.EventsEvicted
		st.AlertsEvicted += es.AlertsEvicted
		// Bindings are replicated to every shard and evicted identically
		// everywhere: the count is the max, not the sum.
		if es.BindingsEvicted > maxBind {
			maxBind = es.BindingsEvicted
		}
		st.FramesShed += int(w.shedFrames.Load())
		st.BatchesShed += int(w.shedBatches.Load())
	}
	st.BindingsEvicted = maxBind
	// Counters carried over from a restored portable checkpoint (fields
	// that live state re-counts arrive zeroed — see RestoreSnapshot).
	st = addStats(st, s.restoredStats)
	return st
}

// DistillerStats returns the distiller counters of the whole pipeline:
// the frame-level fields (Frames, Fragments, DecodeError, Ignored,
// Streamed) of the frames the router absorbs, plus every shard
// distiller's counters for the frames and stream messages shipped to it,
// plus any restored checkpoint's folded history. Each frame is counted
// once, where it terminates, so for the same input the result equals the
// serial engine's DistillerStats at any shards × ingest geometry, and the
// ledger Frames + StreamMsgs == Σ terminal counters holds (frames shed
// under ShedAfter are in neither side). Like Stats, it reads published
// snapshots and atomics and never blocks on a shard.
func (s *ShardedEngine) DistillerStats() DistillerStats {
	a := &s.absorbed
	st := DistillerStats{
		Frames:      int(a.frames.Load()),
		Fragments:   int(a.fragments.Load()),
		DecodeError: int(a.decodeError.Load()),
		Ignored:     int(a.ignored.Load()),
		Streamed:    int(a.streamed.Load()),
	}
	for _, w := range s.workers {
		w.resMu.Lock()
		st = addDistillerStats(st, w.pub.dstats)
		w.resMu.Unlock()
	}
	return addDistillerStats(st, s.restoredDstats)
}

// ShardHealth reports per-shard liveness and drop accounting. After a
// Flush, FramesRouted == FramesProcessed + FramesShed for every shard
// that is not mid-stall.
type ShardHealth struct {
	Shard           int
	State           string // "healthy", "panicked", or "stalled"
	FramesRouted    uint64 // frames the router assigned to this shard
	FramesProcessed uint64 // frames fully processed by the worker
	FramesShed      uint64 // frames dropped (overload shed or failure)
	BatchesShed     uint64 // whole batches dropped
}

// ShardHealth returns the per-shard health and accounting snapshot.
func (s *ShardedEngine) ShardHealth() []ShardHealth {
	out := make([]ShardHealth, len(s.workers))
	for i, w := range s.workers {
		out[i] = ShardHealth{
			Shard:           i,
			State:           stateName(w.state.Load()),
			FramesRouted:    w.routedF.Load(),
			FramesProcessed: w.processedF.Load(),
			FramesShed:      w.shedFrames.Load(),
			BatchesShed:     w.shedBatches.Load(),
		}
	}
	return out
}

// IngestHealth is one ingest lane's ledger. After a Flush the three
// stages reconcile exactly: every frame dealt to a lane was decoded by
// it and sequenced into the routing path, so
// FramesFed == FramesDecoded == FramesSequenced per lane, and the lane
// totals sum to Stats().Frames. Downstream, ShardHealth's
// routed == processed + shed ledger is unchanged.
type IngestHealth struct {
	Ingester        int
	FramesFed       uint64 // frames dealt to this lane by HandleFrame
	FramesDecoded   uint64 // frames the lane finished decoding
	FramesSequenced uint64 // frames the sequencer replayed into routing
}

// IngestHealth returns the per-ingester ledger, or nil when the engine
// runs the single synchronous router.
func (s *ShardedEngine) IngestHealth() []IngestHealth {
	if s.ing == nil {
		return nil
	}
	out := make([]IngestHealth, len(s.ing.lanes))
	for i, l := range s.ing.lanes {
		out[i] = IngestHealth{
			Ingester:        i,
			FramesFed:       l.fed.Load(),
			FramesDecoded:   l.decoded.Load(),
			FramesSequenced: l.sequenced.Load(),
		}
	}
	return out
}

// TrailCounts returns the number of distinct sessions and trails across
// all shards (the sharded analogue of Trails().Sessions()/Trails()).
func (s *ShardedEngine) TrailCounts() (sessions, trails int) {
	if s.ing != nil {
		s.ing.drain()
	}
	s.mu.Lock()
	if !s.closed {
		acks := make([]chan struct{}, len(s.workers))
		for i := range s.workers {
			ack := make(chan struct{})
			acks[i] = ack
			s.pending[i] = append(s.pending[i], shardItem{kind: itemInspect, ack: ack})
			s.flushShardLocked(i)
		}
		s.mu.Unlock()
		for i, ack := range acks {
			awaitAck(s.workers[i], ack)
		}
	} else {
		s.mu.Unlock()
	}
	sessSet := make(map[string]struct{})
	trailSet := make(map[trailKey]struct{})
	for _, w := range s.workers {
		w.resMu.Lock()
		for _, k := range w.pub.trails {
			sessSet[k.session] = struct{}{}
			trailSet[k] = struct{}{}
		}
		w.resMu.Unlock()
	}
	return len(sessSet), len(trailSet)
}

// Alerts flushes and returns all alerts in the serial engine's order:
// first firing position in the frame stream. Alerts for one (rule,
// session) pair raised on multiple shards — possible only for sessions
// that span Call-IDs, like IM sender sessions — are merged with their
// counts summed. Self-monitoring alerts (ids-overload, shard-failure)
// are merged in at the frame position where they fired.
func (s *ShardedEngine) Alerts() []Alert {
	s.Flush()
	type tagged struct {
		tag mergeTag
		a   Alert
	}
	var all []tagged
	for _, w := range s.workers {
		w.resMu.Lock()
		for j, a := range w.pub.alerts {
			all = append(all, tagged{tag: w.pub.alertTags[j], a: a})
		}
		w.resMu.Unlock()
	}
	s.selfMu.Lock()
	for j, a := range s.selfAlert {
		all = append(all, tagged{tag: s.selfTags[j], a: a})
	}
	s.selfMu.Unlock()
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].tag.idx != all[j].tag.idx {
			return all[i].tag.idx < all[j].tag.idx
		}
		return all[i].tag.sub < all[j].tag.sub
	})
	out := make([]Alert, 0, len(all))
	index := make(map[string]int, len(all))
	for _, t := range all {
		k := t.a.Rule + "|" + t.a.Session
		if i, ok := index[k]; ok {
			out[i].Count += t.a.Count
			continue
		}
		index[k] = len(out)
		out = append(out, t.a)
	}
	return out
}

// AlertsFor returns merged alerts raised by one rule.
func (s *ShardedEngine) AlertsFor(rule string) []Alert {
	var out []Alert
	for _, a := range s.Alerts() {
		if a.Rule == rule {
			out = append(out, a)
		}
	}
	return out
}

// Events flushes and returns the merged event log in serial order (empty
// unless the engine was built WithEventLog).
func (s *ShardedEngine) Events() []Event {
	s.Flush()
	type tagged struct {
		tag mergeTag
		ev  Event
	}
	var all []tagged
	for _, w := range s.workers {
		w.resMu.Lock()
		for j, ev := range w.pub.events {
			all = append(all, tagged{tag: w.pub.eventTags[j], ev: ev})
		}
		w.resMu.Unlock()
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].tag.idx != all[j].tag.idx {
			return all[i].tag.idx < all[j].tag.idx
		}
		return all[i].tag.sub < all[j].tag.sub
	})
	out := make([]Event, len(all))
	for i, t := range all {
		out[i] = t.ev
	}
	return out
}

// resolveRouteLocked maps a route key through the dialog's pinned
// routing key. For datagram dialogs the pin is the Call-ID itself (or a
// keyer override, already applied by SIP classification), so resolution
// is the identity; for dialogs first sighted on a TCP stream the pin is
// the flow's routing key, and resolving here is what sends the dialog's
// media, RTCP and accounting traffic to the shard that holds the stream's
// dialog state. Mirrors shardFor in cross-geometry snapshot restore.
func (s *ShardedEngine) resolveRouteLocked(key string) string {
	if rk, ok := s.sticky[key]; ok {
		return rk
	}
	return key
}

// shardOf hashes a session key onto a shard (FNV-1a).
func shardOf(key string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return int(h % uint32(n))
}

// --- shard worker ---

func (w *shardWorker) run() {
	defer close(w.done)
	for batch := range w.ch {
		if w.state.Load() != stateHealthy {
			// Quarantined: drain the backlog, accounting every frame as
			// shed and acking markers so readers never wait on a dead
			// shard. Inspect markers still publish (the engine is
			// quiescent — "alerts flushed" outlives the failure).
			w.drainBatch(batch)
			putBatch(batch)
			w.completedB.Add(1)
			continue
		}
		pos, failure := w.runBatch(batch)
		if failure != nil {
			at := batch[pos].at
			if pos < len(batch) && batch[pos].kind == itemGroup && len(batch[pos].group) > 0 {
				at = batch[pos].group[0].at
			}
			w.owner.noteShardPanic(w, at, failure)
			w.publish()
			n, _ := shedItems(batch[pos:])
			if n > 0 {
				w.shedFrames.Add(uint64(n))
			}
			if w.eng.cfg.Limits.RestartFailedShards {
				w.restartEngine(at)
			} else {
				w.state.Store(statePanicked)
			}
		} else {
			w.publish()
		}
		putBatch(batch)
		w.completedB.Add(1)
		if w.trackBeat {
			w.beat.Store(time.Now().UnixNano())
		}
	}
	w.publish()
	w.publishTrails()
}

// runBatch processes one batch under recover. On panic it reports the
// index of the failing item; items before it completed normally.
func (w *shardWorker) runBatch(batch []shardItem) (pos int, failure any) {
	defer func() {
		if r := recover(); r != nil {
			failure = r
		}
	}()
	for pos = 0; pos < len(batch); pos++ {
		w.runItem(&batch[pos])
		if w.trackBeat {
			w.beat.Store(time.Now().UnixNano())
		}
	}
	return len(batch), nil
}

// drainBatch sheds a quarantined shard's backlog, answering inspect
// markers from the (quiescent) engine so trail counts stay available.
func (w *shardWorker) drainBatch(batch []shardItem) {
	for i := range batch {
		if batch[i].kind == itemInspect {
			w.publishTrails()
		}
	}
	n, at := shedItems(batch)
	w.shedBatches.Add(1)
	if n > 0 {
		w.shedFrames.Add(uint64(n))
		w.owner.raiseSelf(RuleIDSOverload, fmt.Sprintf("shard:%d", w.id),
			fmt.Sprintf("shed %d frames bound for shard %d (queue stalled or shard quarantined)", n, w.id), at)
	}
	if w.trackBeat {
		w.beat.Store(time.Now().UnixNano())
	}
}

func (w *shardWorker) runItem(it *shardItem) {
	e := w.eng
	switch it.kind {
	case itemFrame:
		w.injectFault()
		w.sub = 0
		w.processFrame(it.idx, it.at, it.frame, it.hints)
		w.processedF.Add(1)
	case itemGroup:
		w.injectFault()
		w.sub = 0
		for _, fr := range it.group {
			w.processFrame(it.idx, fr.at, fr.frame, it.hints)
		}
		w.processedF.Add(uint64(len(it.group)))
	case itemStream:
		w.injectFault()
		w.sub = 0
		for _, sm := range it.msgs {
			w.processStreamMessage(it.idx, sm)
		}
		w.processedF.Add(1)
	case itemBinding:
		e.gen.ApplyBinding(it.aor, it.ip)
	case itemEvict:
		e.gen.EvictSession(it.session)
	case itemExpire:
		e.stats.SessionsEvicted += e.gen.ExpireSessions(it.at, e.cfg.SessionTimeout)
	case itemFlush:
		w.publish()
		close(it.ack)
	case itemInspect:
		w.publish()
		w.publishTrails()
		close(it.ack)
	case itemSnapshot:
		w.publish()
		*it.snap = w.snapshotWorker()
		close(it.ack)
	case itemRestore:
		w.installRestore(it.restore)
		close(it.ack)
	case itemReload:
		// A warm-restart blob serialized under the old ruleset would
		// restore stale partial matches with old semantics; drop the
		// cached blob when the ruleset text actually changed.
		if FormatRules(e.rules.rules) != FormatRules(it.rules) {
			w.lastEngineSnap = nil
		}
		it.dropped.Add(int64(e.rules.reload(it.rules)))
		e.cfg.Rules = it.rules
		close(it.ack)
	case itemRestart:
		w.rollEngine()
		close(it.ack)
	}
}

// injectFault consults the configured fault injector (chaos tests) with
// this shard's frame-item ordinal.
func (w *shardWorker) injectFault() {
	if w.eng.faults == nil {
		return
	}
	n := w.faultSeq
	w.faultSeq++
	f := w.eng.faults.At(w.id, n)
	if f.Stall > 0 {
		time.Sleep(f.Stall)
	}
	if f.Panic {
		panic(fmt.Sprintf("chaoscore: injected panic (shard %d frame %d)", w.id, n))
	}
}

// processFrame is the shard-side pipeline: distill, generate (with the
// router's hints), and feed rules. Frame counting and expiry cadence are
// the router's job, so unlike Engine.HandleFrame neither happens here.
func (w *shardWorker) processFrame(idx uint64, at time.Duration, frame []byte, h RouteHints) {
	if w.eng.distiller.DistillView(at, frame, &w.eng.view) {
		w.processView(idx, h)
	}
}

// processStreamMessage runs one router-extracted SIP message through the
// shard pipeline. The shard holds no stream state: the message arrives
// already reassembled and framed, so this is processFrame minus the
// distillation prelude, with the same merge-tag accounting (w.sub runs
// continuously across the messages of one item, so coalesced messages
// keep the serial output order).
func (w *shardWorker) processStreamMessage(idx uint64, sm shippedMsg) {
	w.eng.distiller.distillStreamMessage(sm.at, sm.src, sm.dst, sm.payload, sm.kind, &w.eng.view)
	w.processView(idx, sm.hints)
}

// processView generates events from the distilled view (with the
// router's hints) and feeds them to the rules, tagging each for the
// global merge.
func (w *shardWorker) processView(idx uint64, h RouteHints) {
	e := w.eng
	e.stats.Footprints++
	e.evScratch = e.evScratch[:0]
	e.gen.ProcessView(&e.view, h, &e.evScratch)
	for _, ev := range e.evScratch {
		e.stats.Events++
		w.curTag = mergeTag{idx: idx, sub: w.sub}
		if e.keepLog {
			e.logEvent(ev)
			w.eventTags = append(w.eventTags, w.curTag)
		}
		e.stats.Alerts += len(e.rules.Feed(ev))
		w.sub++
	}
}

// syncTags mirrors the engine's front-evictions (retention caps) into
// the worker's tag slices so tags stay index-aligned with the retained
// alerts and events.
func (w *shardWorker) syncTags() {
	e := w.eng
	if d := e.rules.evicted - w.trimmedA; d > 0 {
		w.alertTags = append(w.alertTags[:0], w.alertTags[d:]...)
		w.trimmedA = e.rules.evicted
	}
	if d := e.stats.EventsEvicted - w.trimmedE; d > 0 {
		w.eventTags = append(w.eventTags[:0], w.eventTags[d:]...)
		w.trimmedE = e.stats.EventsEvicted
	}
}

// publish snapshots the worker's pipeline into pub. Stats are rebuilt
// every time; alerts are rebuilt only when the rule engine's version
// moved (covering in-place Count bumps); events are maintained as a
// delta (evictions drop from the front, new events append at the back).
func (w *shardWorker) publish() {
	e := w.eng
	w.syncTags()
	w.resMu.Lock()
	defer w.resMu.Unlock()
	w.pub.stats = addStats(w.base.stats, e.Stats())
	w.pub.dstats = addDistillerStats(w.base.dstats, e.distiller.stats)
	if v := e.rules.version; v != w.pubVer {
		w.pubVer = v
		w.pub.alerts = append(append(w.pub.alerts[:0], w.base.alerts...), e.rules.alerts...)
		w.pub.alertTags = append(append(w.pub.alertTags[:0], w.base.alertTags...), w.alertTags...)
	}
	baseLen := len(w.base.events)
	if d := e.stats.EventsEvicted - w.pubEvict; d > 0 {
		w.pub.events = append(w.pub.events[:baseLen], w.pub.events[baseLen+d:]...)
		w.pub.eventTags = append(w.pub.eventTags[:baseLen], w.pub.eventTags[baseLen+d:]...)
		w.pubEvict = e.stats.EventsEvicted
	}
	if d := len(e.events) - (len(w.pub.events) - baseLen); d > 0 {
		w.pub.events = append(w.pub.events, e.events[len(e.events)-d:]...)
		w.pub.eventTags = append(w.pub.eventTags, w.eventTags[len(e.events)-d:]...)
	}
}

// publishTrails snapshots the trail keys (for TrailCounts).
func (w *shardWorker) publishTrails() {
	keys := make([]trailKey, 0, len(w.eng.trails.trails))
	for k := range w.eng.trails.trails {
		keys = append(keys, k)
	}
	w.resMu.Lock()
	w.pub.trails = keys
	w.resMu.Unlock()
}

// restartEngine folds the failed engine's published results into the
// worker's base and starts a fresh pipeline (Limits.RestartFailedShards).
// Prior detections survive. Detection state is rehydrated from the last
// checkpoint when one is cached (warm restart: trails, sessions,
// correlator state and partial-match progress as of the checkpoint — only
// frames since it are lost); without a checkpoint the restart is cold and
// a shard-state-loss self-alert records that the shard is running blind.
func (w *shardWorker) restartEngine(at time.Duration) {
	w.syncTags()
	e := w.eng
	w.base.stats = addStats(w.base.stats, e.Stats())
	w.base.dstats = addDistillerStats(w.base.dstats, e.distiller.stats)
	w.base.alerts = append(w.base.alerts, e.rules.alerts...)
	w.base.alertTags = append(w.base.alertTags, w.alertTags...)
	w.base.events = append(w.base.events, e.events...)
	w.base.eventTags = append(w.base.eventTags, w.eventTags...)
	w.alertTags, w.eventTags = nil, nil
	w.trimmedA, w.trimmedE = 0, 0
	w.eng = w.owner.newShardEngine()
	w.owner.wireWorker(w)
	w.owner.shardsRestarted.Add(1)
	warm := false
	if len(w.lastEngineSnap) > 0 {
		if snap, err := w.eng.decodeSnapBodyBytes(w.lastEngineSnap); err == nil {
			w.eng.installSnap(snap, false)
			warm = true
		}
	}
	if !warm {
		w.owner.raiseSelf(RuleShardStateLoss, fmt.Sprintf("shard:%d", w.id),
			fmt.Sprintf("shard %d restarted with empty detection state (no checkpoint available); in-flight rule progress for its sessions is lost", w.id), at)
	}
	w.resMu.Lock()
	w.pubVer = 0
	w.pubEvict = 0
	w.pub.stats = w.base.stats
	w.pub.alerts = append([]Alert(nil), w.base.alerts...)
	w.pub.alertTags = append([]mergeTag(nil), w.base.alertTags...)
	w.pub.events = append([]Event(nil), w.base.events...)
	w.pub.eventTags = append([]mergeTag(nil), w.base.eventTags...)
	w.pub.trails = nil
	w.resMu.Unlock()
}

// rollEngine restarts the worker's engine warm at a quiescent point
// (RollingRestart): the current engine body is exported, a fresh engine
// is built against the live ruleset and the body bound to it, and the
// pipelines are swapped with outputs intact — published results, merge
// tags and the fault-injection ordinal all carry over, so the shard's
// output stream is indistinguishable from an uninterrupted run. If the
// body fails to bind, the old engine keeps running: a rolling restart
// never trades a healthy shard for a cold one.
func (w *shardWorker) rollEngine() {
	body := w.eng.exportBody(w.eng.stats)
	fresh := w.owner.newShardEngine()
	snap, err := fresh.bindBody(body)
	if err != nil {
		return
	}
	w.lastEngineSnap = encodeBody(&body)
	w.eng = fresh
	w.owner.wireWorker(w)
	w.eng.installSnap(snap, true)
	w.owner.shardsRestarted.Add(1)
}

// addStats sums two stat snapshots field by field.
func addStats(a, b EngineStats) EngineStats {
	a.Frames += b.Frames
	a.Footprints += b.Footprints
	a.Events += b.Events
	a.Alerts += b.Alerts
	a.SessionsEvicted += b.SessionsEvicted
	a.FramesAfterClose += b.FramesAfterClose
	a.FramesShed += b.FramesShed
	a.BatchesShed += b.BatchesShed
	a.SessionsCapEvicted += b.SessionsCapEvicted
	a.FragGroupsEvicted += b.FragGroupsEvicted
	a.IMHistoriesEvicted += b.IMHistoriesEvicted
	a.SeqTrackersEvicted += b.SeqTrackersEvicted
	a.BindingsEvicted += b.BindingsEvicted
	a.AlertsEvicted += b.AlertsEvicted
	a.EventsEvicted += b.EventsEvicted
	a.ShardsFailed += b.ShardsFailed
	a.ShardsRestarted += b.ShardsRestarted
	return a
}
