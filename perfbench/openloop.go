package main

import (
	"fmt"
	"sync"
	"time"

	"scidive/internal/core"
)

// frameEngine is the frame-ingest surface both engine shapes share.
type frameEngine interface {
	HandleFrame(at time.Duration, frame []byte)
	OnAlert(fn func(core.Alert))
	Alerts() []core.Alert
	Stats() core.EngineStats
}

// latencyRecorder maps each alert to the frame that completed it (by
// Alert.At: frame times are unique) and records the wall-clock arrival of
// the first alert on every frame that carries an expected alert. OnAlert
// fires on shard goroutines in the sharded shape, hence the lock.
type latencyRecorder struct {
	w         *workload
	want      map[int]bool // frames that complete an expected hub alert
	mu        sync.Mutex
	arrived   []time.Time // per frame index; zero if no alert arrived
	callbacks int
}

func newLatencyRecorder(w *workload) *latencyRecorder {
	want := make(map[int]bool)
	for k := range w.expected(byHub) {
		want[w.frameAt[k.at]] = true
	}
	return &latencyRecorder{w: w, want: want, arrived: make([]time.Time, len(w.frames))}
}

func (r *latencyRecorder) onAlert(a core.Alert) {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.callbacks++
	// The first alert on a frame sets its latency; a frame completing
	// two rules (tunnel mismatch and evasion) counts once.
	if i, ok := r.w.frameAt[a.At]; ok && r.want[i] && r.arrived[i].IsZero() {
		r.arrived[i] = now
	}
}

// latencies returns, in frame order, for every frame whose alert arrived,
// the time from the frame's due time to its first alert.
func (r *latencyRecorder) latencies(due func(i int) time.Time) []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []time.Duration
	for i, t := range r.arrived {
		if !t.IsZero() {
			out = append(out, t.Sub(due(i)))
		}
	}
	return out
}

// latWindow is the least number of alerting frames in one latency window.
const latWindow = 64

// latencyStats gathers one shape's open-loop passes. Each pass's alerting
// frames, in due order, are cut into equal windows of at least latWindow
// frames, and a gated percentile is the median over every window of every
// pass of that window's percentile. A host stall (on a shared 2-vCPU VM,
// 1 to 10 ms several times a second) delays the few alerts due around it,
// which lands them in one window; pooled over a pass, a handful of stalls
// moved the serial p90 by up to a half between runs. The pooled p99 of
// each pass, which shows the stalls, is printed for information.
type latencyStats struct {
	p50, p90, p99 []float64
	samples       int
}

func (s *latencyStats) add(lat []time.Duration) {
	us := durs(lat, time.Microsecond)
	s.samples += len(us)
	s.p99 = append(s.p99, quantile(append([]float64(nil), us...), 0.99))
	n := max(len(us)/latWindow, 1)
	for k := 0; k < n; k++ {
		win := append([]float64(nil), us[k*len(us)/n:(k+1)*len(us)/n]...)
		s.p50 = append(s.p50, quantile(win, 0.5))
		s.p90 = append(s.p90, quantile(win, 0.9))
	}
}

// openLoopRun is one open-loop pass of a capture through one engine.
type openLoopRun struct {
	latency    []time.Duration // per alerting frame, from due time to alert
	late       []time.Duration // per frame, how late the generator sent it
	backlogMax uint64          // sharded only, when sampled
	alerts     []core.Alert    // the engine's (merged) alert list after the pass
	stats      core.EngineStats
	callbacks  int      // OnAlert calls during the pass
	wantFrames int      // frames that complete an expected alert
	problems   []string // engine-side checks made by the runner
}

// openLoop offers every frame of w at the workload's fixed rate from this
// goroutine, spinning until each frame is due, and times alerts from the
// due time of the frame that completed them. finish runs after the last
// frame (the sharded Flush); sample, if set, runs every 256 frames.
func openLoop(w *workload, eng frameEngine, finish func(), sample func()) openLoopRun {
	rec := newLatencyRecorder(w)
	eng.OnAlert(rec.onAlert)
	period := time.Duration(float64(time.Second) / w.rate)
	late := make([]time.Duration, len(w.frames))
	start := time.Now().Add(time.Millisecond)
	due := func(i int) time.Time { return start.Add(time.Duration(i) * period) }
	for i := range w.frames {
		d := due(i)
		now := time.Now()
		for now.Before(d) {
			now = time.Now()
		}
		late[i] = now.Sub(d)
		f := &w.frames[i]
		eng.HandleFrame(f.at, f.data)
		if sample != nil && i%256 == 0 {
			sample()
		}
	}
	if finish != nil {
		finish()
	}
	return openLoopRun{
		latency: rec.latencies(due), late: late, alerts: eng.Alerts(), stats: eng.Stats(),
		callbacks: rec.callbacks, wantFrames: len(rec.want),
	}
}

// check verifies the pass's alerts and ledgers, and that the generator
// kept up: a pass whose median lateness exceeds its median alert latency
// timed the feeder, not the engine. That fails the run when the pass feeds
// a gated metric (gated); for the printed-only serial latency it is a
// warning, since only the printed figure is void.
func (r openLoopRun) check(w *workload, t *tally, shape string, gated bool) {
	p := append(r.problems, t.compare("open-loop alerts", r.alerts, w.expected(byHub))...)
	if len(r.latency) != r.wantFrames {
		p = append(p, fmt.Sprintf("%d alerting frames timed, want %d", len(r.latency), r.wantFrames))
	}
	lat := median(durs(r.latency, time.Microsecond))
	late := median(durs(r.late, time.Microsecond))
	if late > lat {
		msg := fmt.Sprintf("generator fell behind: median lateness %.1fus > median alert latency %.1fus", late, lat)
		if gated {
			p = append(p, msg)
		} else {
			t.warnings = append(t.warnings, shape+" open loop: "+msg)
		}
	}
	p = append(p, t.drops(len(w.frames), r.stats)...)
	t.run(shape+" open loop", p...)
}

func openLoopSerial(w *workload) openLoopRun {
	eng := core.NewEngine(core.Config{})
	return openLoop(w, eng, nil, nil)
}

func openLoopSharded(w *workload, sampleBacklog bool) openLoopRun {
	s := core.NewShardedEngine(core.Config{}, numShards)
	defer s.Close()
	var backlog uint64
	var sample func()
	if sampleBacklog {
		sample = func() {
			var b uint64
			for _, h := range s.ShardHealth() {
				b += h.FramesRouted - h.FramesProcessed
			}
			backlog = max(backlog, b)
		}
	}
	r := openLoop(w, s, s.Flush, sample)
	r.backlogMax = backlog
	r.problems = shardLedger(s.ShardHealth())
	return r
}
