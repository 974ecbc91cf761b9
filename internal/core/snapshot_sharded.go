package core

import (
	"fmt"
	"maps"
	"strings"
)

// Sharded checkpoint/restore over the portable format. A sharded
// snapshot is a coordinated quiescent-point capture folded into the same
// session-keyed global body the serial engine writes: a snapshot marker
// is enqueued to every shard behind all pending work (the consistent cut),
// each worker exports its pipeline into a rawEngineBody and hands it
// across the marker's ack, and the writer concatenates those bodies into
// one global body — the union of the per-shard session tables, trails
// and partial matches, the merged correlator state — around the folded
// stats, the merged alert/event streams (in merge-tag order, exactly what
// Alerts() and Events() return) and the router's own state, then encodes
// it with writeEngineBody plus the routing directory (sticky pins) and
// buffered fragment groups. Because the body is keyed by session, restore
// splits it by the restoring engine's router config and binds each
// shard's slice straight to that shard's engine: a checkpoint captured at
// one shards × ingest geometry resumes at any other, or on the serial
// engine, with identical outputs. No body is encoded and re-parsed inside
// the process except the per-shard warm-restart cache (lastEngineSnap),
// a deep copy that must outlive a panicking engine.
//
// Like Snapshot/RestoreSnapshot on the serial engine, neither may run
// concurrently with HandleFrame or Close.

// workerRestore is one shard's slice of a portable checkpoint, bound to
// that shard's fresh engine and ready to install. It
// travels to the worker goroutine via an itemRestore marker (the channel
// send orders the install before any subsequent work).
type workerRestore struct {
	engine    *engineSnap
	alertTags []mergeTag
	eventTags []mergeTag
}

// isSelfRule reports whether an alert was raised by the sharded engine's
// self-monitoring (router-side) rather than a shard's rule engine; restore
// routes these back to the router's self-alert list instead of a shard.
func isSelfRule(name string) bool {
	switch name {
	case RuleIDSOverload, RuleShardFailure, RuleShardStateLoss, RuleRuleReload:
		return true
	}
	return false
}

// addDistillerStats sums two distiller stat snapshots field by field.
func addDistillerStats(a, b DistillerStats) DistillerStats {
	a.Frames += b.Frames
	a.Fragments += b.Fragments
	a.DecodeError += b.DecodeError
	a.SIP += b.SIP
	a.RTP += b.RTP
	a.RTCP += b.RTCP
	a.Acct += b.Acct
	a.Raw += b.Raw
	a.Ignored += b.Ignored
	a.Mismatched += b.Mismatched
	a.Streamed += b.Streamed
	a.StreamMsgs += b.StreamMsgs
	return a
}

// snapshotWorker exports the worker's engine body (runs on the worker
// goroutine, after publish, at the marker's consistent cut) and refreshes
// the warm-restart cache with its encoding. The writer reads the body
// after the marker's ack, while the worker stays idle.
func (w *shardWorker) snapshotWorker() *rawEngineBody {
	body := w.eng.exportBody(w.eng.stats)
	w.lastEngineSnap = encodeBody(&body)
	return &body
}

// installRestore installs one shard's slice of a portable checkpoint
// (runs on the worker goroutine; the channel send that delivered it
// orders the install before any post-restore work). Decode already
// validated everything, so this cannot fail. The restored outputs carry
// position tags (frame 0, global ordinal) so the merged streams reproduce
// the capture-time order ahead of anything the resumed run appends.
func (w *shardWorker) installRestore(p *workerRestore) {
	w.eng.installSnap(p.engine, true)
	body := w.eng.exportBody(w.eng.stats)
	w.lastEngineSnap = encodeBody(&body)
	w.alertTags = append(w.alertTags[:0], p.alertTags...)
	w.eventTags = append(w.eventTags[:0], p.eventTags...)
	w.trimmedA, w.trimmedE = 0, 0
	w.faultSeq = 0
	w.base = shardResults{}
	w.resMu.Lock()
	w.pubVer = -1 // force the alert rebuild on the publish below
	w.pubEvict = 0
	w.pub = shardResults{}
	w.resMu.Unlock()
	w.publish()
	w.publishTrails()
}

// header returns the sharded engine's snapshot identity. The geometry
// fields are informational only (see validateSnapHeader); the rules hash
// tracks the live (possibly hot-reloaded) ruleset.
func (s *ShardedEngine) header() snapHeader {
	return snapHeader{
		engineKind:  snapKindSharded,
		shards:      len(s.workers),
		ingesters:   s.ingesters,
		frames:      s.frames.Load(),
		configHash:  configFingerprint(s.cfg, s.keepLog),
		rulesHash:   rulesFingerprint(*s.liveRules.Load()),
		correlators: correlatorNames(s.correlators),
	}
}

// Snapshot captures the whole sharded pipeline at a quiescent point into
// a portable, session-keyed checkpoint. It flushes all queued work, takes
// the merged output views, enqueues a snapshot marker to every shard
// behind anything still pending (the consistent cut) while exporting the
// router's own state under the routing lock, then concatenates the
// per-shard bodies into one global engine body. Must not run
// concurrently with HandleFrame or Close.
//
// Shards quarantined as panicked or stalled ack the marker through their
// drain path without exporting: their published alerts, events and
// stats survive (they are part of the merged views) but their private
// detection state is not captured — a degraded but well-formed
// checkpoint, mirroring the quarantine's own data loss.
func (s *ShardedEngine) Snapshot() ([]byte, error) {
	// Merged output views first (each flushes). Snapshot never runs
	// concurrently with HandleFrame, so the pipeline cannot advance
	// between these reads and the markers below.
	alerts := s.Alerts()
	events := s.Events()
	folded := s.Stats()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("core: snapshot: engine is closed")
	}
	bodies := make([]*rawEngineBody, len(s.workers))
	acks := make([]chan struct{}, len(s.workers))
	for i := range s.workers {
		acks[i] = make(chan struct{})
		s.pending[i] = append(s.pending[i], shardItem{kind: itemSnapshot, snap: &bodies[i], ack: acks[i]})
		s.flushShardLocked(i)
	}
	var w snapWriter
	writeSnapHeader(&w, s.header())
	// Router correlator state, position-indexed over the snapshotters:
	// the router instances are authoritative (their hinter state judges
	// every frame here in global order) except for stateSharder
	// correlators, which are worker-resident — their entries are replaced
	// below by the merge of the per-shard states.
	body := rawEngineBody{
		stats:           folded,
		streams:         s.reasm.ExportStreams(),
		reasmEvicted:    folded.FragGroupsEvicted,
		evictedSessions: folded.SessionsCapEvicted,
		evictedBindings: folded.BindingsEvicted,
		corrs:           exportCorrs(s.correlators),
		rules:           newRuleSnap(),
		events:          events,
	}
	var tail snapWriter
	writeSticky(&tail, s.sticky)
	writeFragGroups(&tail, s.frags)
	writeStreamMux(&tail, s.streams)
	s.mu.Unlock()
	for i, ack := range acks {
		awaitAck(s.workers[i], ack)
	}
	body.dstats = s.DistillerStats()
	workerCorr := make(map[string][][]byte)
	bestClock := -1
	for _, wb := range bodies {
		if wb == nil {
			// Quarantined or stalled shard: degraded capture (see doc).
			continue
		}
		body.trails = append(body.trails, wb.trails...)
		body.index.sessions = append(body.index.sessions, wb.index.sessions...)
		body.index.pendingReg = append(body.index.pendingReg, wb.index.pendingReg...)
		for k, parts := range wb.rules.partials {
			body.rules.partials[k] = append(body.rules.partials[k], parts...)
		}
		for k, pend := range wb.rules.pendings {
			body.rules.pendings[k] = append(body.rules.pendings[k], pend...)
		}
		for k, at := range wb.rules.lastAbsent {
			if seen, ok := body.rules.lastAbsent[k]; !ok || at > seen {
				body.rules.lastAbsent[k] = at
			}
		}
		// Bindings are replicated to every shard and age identically;
		// take the most advanced replica (highest binding clock).
		if wb.bindingClock > bestClock {
			bestClock = wb.bindingClock
			body.bindings = wb.bindings
			body.bindingClock = wb.bindingClock
		}
		for _, cb := range wb.corrs {
			workerCorr[cb.name] = append(workerCorr[cb.name], cb.blob)
		}
	}
	for i, c := range snapshotters(s.correlators) {
		sh, ok := c.(stateSharder)
		if !ok {
			continue
		}
		merged, err := sh.mergeState(workerCorr[c.Name()])
		if err != nil {
			return nil, fmt.Errorf("core: snapshot: correlator %s: %w", c.Name(), err)
		}
		body.corrs[i].blob = merged
	}
	// The global rule-engine section: the merged alert stream (unique per
	// rule|session, counts summed) with a dedup entry per retained alert,
	// offset by the folded eviction count so the pointer validation and
	// O(1) eviction arithmetic hold after a serial restore. The version is
	// a deterministic function of the same counters (every raise bumps it
	// once, suppressed repeats included), so re-snapshotting an idle
	// restored engine reproduces it.
	body.rules.alerts = alerts
	body.rules.dedupBase = folded.AlertsEvicted
	body.rules.evicted = folded.AlertsEvicted
	body.rules.eventsSeen = folded.Events
	body.rules.version = folded.AlertsEvicted
	for gi, a := range alerts {
		body.rules.dedup[a.Rule+"|"+a.Session] = gi + folded.AlertsEvicted
		body.rules.version += a.Count
	}
	writeEngineBody(&w, &body)
	w.buf = append(w.buf, tail.buf...)
	w.u64(fnv64(w.buf))
	return w.buf, nil
}

// RestoreSnapshot rebuilds the whole sharded pipeline from a portable
// checkpoint written by either engine kind at any geometry. The engine
// must be fresh (no frames routed); correlator set, ruleset and config
// are validated against the header with descriptive errors — engine
// kind, shard count and ingest width are not, because the session-keyed
// body re-routes through this engine's own router: every session's
// trails, directory entries, partial matches, alerts and events are
// split across the current shards by the same sticky-pinned routing keys
// the router will use for the resumed traffic. The entire checkpoint is
// decoded and validated before anything installs, so a corrupt
// checkpoint leaves the engine untouched. Every shard comes back
// healthy.
func (s *ShardedEngine) RestoreSnapshot(data []byte) error {
	if n := s.frames.Load(); n != 0 {
		return fmt.Errorf("core: restore requires a fresh engine (this one already routed %d frames)", n)
	}
	c, err := readCheckpoint(data, s.header(), *s.liveRules.Load())
	if err != nil {
		return err
	}
	body := &c.body
	n := len(s.workers)
	// shardFor re-routes a session through this engine's geometry: the
	// pinned routing key when the dialog has one, else the session key
	// itself (exactly what the router hashes for non-pinned traffic).
	shardFor := func(session string) int {
		if rk, ok := c.sticky[session]; ok {
			return shardOf(rk, n)
		}
		return shardOf(session, n)
	}
	// ruleShard places a rule-engine entry keyed rule|key: partials
	// travel with their session, the absence machinery with its
	// correlation key (the part after the separator).
	ruleShard := func(k string) int {
		_, ck, _ := strings.Cut(k, "|")
		return shardFor(ck)
	}
	shards := make([]rawEngineBody, n)
	for j := range shards {
		// Bindings are replicated in full to every shard, as the router
		// replicates live registrations. Stats and eviction counters stay
		// zero: the folded history lives in restoredStats below, and the
		// shards re-count only what happens after the resume.
		shards[j].bindings = body.bindings
		shards[j].bindingClock = body.bindingClock
		shards[j].rules = newRuleSnap()
		// Worker instances of router-authoritative correlators never
		// accumulate state (verdicts arrive as RouteHints), so the fresh
		// shard's own empty state is exactly what an uninterrupted run
		// holds; stateSharder entries are replaced below.
		shards[j].corrs = exportCorrs(s.workers[j].eng.gen.correlators)
	}
	for _, t := range body.trails {
		j := shardFor(t.session)
		shards[j].trails = append(shards[j].trails, t)
	}
	for _, sess := range body.index.sessions {
		j := shardFor(sess.st.callID)
		shards[j].index.sessions = append(shards[j].index.sessions, sess)
	}
	for _, reg := range body.index.pendingReg {
		j := shardFor(reg[0])
		shards[j].index.pendingReg = append(shards[j].index.pendingReg, reg)
	}
	for k, parts := range body.rules.partials {
		shards[ruleShard(k)].rules.partials[k] = parts
	}
	for k, pend := range body.rules.pendings {
		shards[ruleShard(k)].rules.pendings[k] = pend
	}
	for k, at := range body.rules.lastAbsent {
		shards[ruleShard(k)].rules.lastAbsent[k] = at
	}
	// Split the merged output streams. Position tags (frame 0, global
	// ordinal) keep the merged order identical to the capture; self-
	// monitoring alerts return to the router's self-alert list.
	var selfAlerts []Alert
	var selfTags []mergeTag
	alertTags := make([][]mergeTag, n)
	for gi, a := range body.rules.alerts {
		if isSelfRule(a.Rule) {
			selfAlerts = append(selfAlerts, a)
			selfTags = append(selfTags, mergeTag{idx: 0, sub: gi})
			continue
		}
		j := shardFor(a.Session)
		shards[j].rules.alerts = append(shards[j].rules.alerts, a)
		alertTags[j] = append(alertTags[j], mergeTag{idx: 0, sub: gi})
	}
	for j := range shards {
		rs := &shards[j].rules
		for i, a := range rs.alerts {
			rs.dedup[a.Rule+"|"+a.Session] = i
		}
		rs.version = len(rs.alerts)
	}
	eventTags := make([][]mergeTag, n)
	for gi, ev := range body.events {
		j := shardFor(ev.Session)
		shards[j].events = append(shards[j].events, ev)
		eventTags[j] = append(eventTags[j], mergeTag{idx: 0, sub: gi})
	}
	// Correlator state. stateSharder blobs are filtered down to each
	// shard's keep set (the same routing keys the router pins); the rest
	// install onto the router's instances.
	snaps := snapshotters(s.correlators)
	if len(body.corrs) != len(snaps) {
		return fmt.Errorf("core: snapshot holds %d correlator states; engine has %d stateful correlators", len(body.corrs), len(snaps))
	}
	var routerInstalls []func()
	for ci, c := range snaps {
		cb := body.corrs[ci]
		if cb.name != c.Name() {
			return fmt.Errorf("core: snapshot correlator state %q does not match engine correlator %q", cb.name, c.Name())
		}
		sh, ok := c.(stateSharder)
		if !ok {
			install, err := decodeCorrBlob(c, cb.blob)
			if err != nil {
				return err
			}
			routerInstalls = append(routerInstalls, install)
			continue
		}
		for j := range shards {
			filtered, err := sh.filterState(cb.blob, func(rk string) bool { return shardOf(rk, n) == j })
			if err != nil {
				return fmt.Errorf("core: snapshot corrupt (correlator %s: %v)", c.Name(), err)
			}
			shards[j].corrs[ci].blob = filtered
		}
	}
	// Bind every shard's slice to its (fresh, quiescent) engine's
	// correlators before anything installs. The driver may touch the
	// worker engines here: restore requires a fresh engine and never runs
	// concurrently with HandleFrame, so the workers are idle.
	restores := make([]*workerRestore, n)
	for j := range shards {
		snap, err := s.workers[j].eng.bindBody(shards[j])
		if err != nil {
			return fmt.Errorf("core: restore: shard %d: %w", j, err)
		}
		restores[j] = &workerRestore{engine: snap, alertTags: alertTags[j], eventTags: eventTags[j]}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("core: restore: engine is closed")
	}
	s.frameIdx = c.header.frames
	s.frames.Store(c.header.frames)
	installSessionIndex(s.idx, body.index)
	s.reasm.ImportStreams(body.streams, body.reasmEvicted)
	s.frags.install(c.frags)
	s.streams.install(c.mux)
	for _, install := range routerInstalls {
		install()
	}
	clear(s.sticky)
	maps.Copy(s.sticky, c.sticky)
	s.capSessions.Store(uint64(body.evictedSessions))
	s.capFrags.Store(uint64(body.reasmEvicted))
	s.capStreams.Store(uint64(c.mux.evicted))
	s.shardsFailed.Store(uint64(body.stats.ShardsFailed))
	s.shardsRestarted.Store(uint64(body.stats.ShardsRestarted))
	s.selfMu.Lock()
	s.selfAlert = selfAlerts
	s.selfTags = selfTags
	s.selfDedup = make(map[string]int, len(selfAlerts))
	for i, a := range selfAlerts {
		s.selfDedup[a.Rule+"|"+a.Session] = i
	}
	s.selfSeq = len(selfAlerts)
	s.selfMu.Unlock()
	// restoredStats carries the folded history for the counters the live
	// pipeline will NOT re-count. Counters that live state re-derives —
	// the frame clock, the router-side cap atomics stored above, the
	// shard-failure atomics, and the correlator-owned eviction counters
	// contributeStats re-adds from the restored atomics — are zeroed so
	// each count happens exactly once.
	rst := body.stats
	rst.Frames = 0
	rst.SessionsCapEvicted = 0
	rst.FragGroupsEvicted = 0
	rst.StreamsEvicted = 0
	rst.ShardsFailed = 0
	rst.ShardsRestarted = 0
	rst.IMHistoriesEvicted = 0
	rst.SeqTrackersEvicted = 0
	s.restoredStats = rst
	s.restoredDstats = body.dstats
	acks := make([]chan struct{}, n)
	for j, wr := range restores {
		acks[j] = make(chan struct{})
		s.pending[j] = append(s.pending[j], shardItem{kind: itemRestore, restore: wr, ack: acks[j]})
		s.flushShardLocked(j)
	}
	s.mu.Unlock()
	for j, ack := range acks {
		awaitAck(s.workers[j], ack)
	}
	return nil
}
