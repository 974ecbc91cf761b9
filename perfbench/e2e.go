package main

import (
	"fmt"
	"runtime"
	"time"

	"scidive/internal/coop"
	"scidive/internal/core"
)

// Shares of the measuring time per phase of the untraced run; set-up
// takes the rest.
const (
	closedShare = 0.6
	openShare   = 0.3
)

// measureEndToEnd produces every end-to-end metric of one workload with
// tracing off. Every run's outputs are checked into t.
func measureEndToEnd(w *workload, measure time.Duration, t *tally, info map[string]any) (map[string]metric, error) {
	n := float64(len(w.frames))
	isCoop := w.name == "coop-split"

	// Memory: the serial replay, or the coop replay on coop-split, with
	// the capture itself excluded from the live heap.
	var before, after, live runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var ser serialRun
	var cr coopRun
	if isCoop {
		cr = runCoop(w)
	} else {
		ser = runSerial(w)
	}
	runtime.ReadMemStats(&after)
	runtime.GC()
	runtime.ReadMemStats(&live)
	allocPerFrame := float64(after.TotalAlloc-before.TotalAlloc) / n
	liveHeapMB := (float64(live.HeapAlloc) - float64(before.HeapAlloc)) / (1 << 20)
	if isCoop {
		cr.check(w, t)
		ser = runSerial(w)
	}
	ser.check(w, t)
	serialKeys := ruleSessions(ser.eng.Alerts())
	resumeCheck(w, t, ser.eng.Alerts())

	// Closed loop: three replays of each shape in rotation, then whichever
	// shape has had the least time runs next, so each gets the same share
	// of the phase and the fast sharded replay repeats most.
	fps := make([][]float64, 3)
	var spent [3]time.Duration
	b := newBudget(time.Duration(closedShare * float64(measure)))
	for rep := 0; b.more(rep, 9); rep++ {
		k := rep % 3
		if rep >= 9 {
			for i := range spent {
				if spent[i] < spent[k] {
					k = i
				}
			}
		}
		runtime.GC()
		var elapsed time.Duration
		switch k {
		case 0:
			r := runSerial(w)
			r.check(w, t)
			elapsed = r.elapsed
		case 1:
			r := runSharded(w)
			r.check(w, t, serialKeys)
			elapsed = r.elapsed
		case 2:
			r := runCoop(w)
			r.check(w, t)
			elapsed = r.elapsed
		}
		spent[k] += elapsed
		fps[k] = append(fps[k], n/elapsed.Seconds())
	}

	// Open loop: sharded, serial, sharded, then alternating while the phase
	// lasts (see latencyStats for how passes become percentiles). Sharded
	// latency is set by where alerts fall in the router's batches, which
	// the capture fixes, so it repeats; serial latency is printed only.
	var serial, sharded latencyStats
	var late []float64
	extraCallbacks := 0
	b = newBudget(time.Duration(openShare * float64(measure)))
	for pass := 0; b.more(pass, 3); pass++ {
		runtime.GC()
		var r openLoopRun
		if pass%2 == 1 {
			r = openLoopSerial(w)
			r.check(w, t, "serial", false)
			serial.add(r.latency)
		} else {
			r = openLoopSharded(w, false)
			r.check(w, t, "sharded", true)
			sharded.add(r.latency)
			extraCallbacks += r.callbacks - len(r.alerts)
		}
		late = append(late, median(durs(r.late, time.Microsecond)))
	}

	// Set-up: resume from the midpoint checkpoint, several times.
	setup, err := setupTimes(w, time.Duration((1-closedShare-openShare)*float64(measure)))
	if err != nil {
		return nil, err
	}

	info["closed_loop_reps"] = map[string]int{"serial": len(fps[0]), "sharded": len(fps[1]), "coop": len(fps[2])}
	info["latency_passes"] = map[string]int{"serial": len(serial.p99), "sharded": len(sharded.p99)}
	info["latency_windows"] = map[string]int{"serial": len(serial.p50), "sharded": len(sharded.p50)}
	info["latency_samples"] = map[string]int{"serial": serial.samples, "sharded": sharded.samples}
	info["alert_p99_us_per_pass"] = map[string][]float64{"serial": serial.p99, "sharded": sharded.p99}
	// Serial latency is printed, not gated; the package doc says why.
	info["ungated"] = map[string]metric{
		"alert_p50_us_serial": {median(serial.p50), "us"},
		"alert_p90_us_serial": {median(serial.p90), "us"},
	}
	info["loadgen_late_p50_us"] = median(late)
	info["setup_reps"] = len(setup)
	// The sharded OnAlert stream can hold alerts its merged Alerts() list
	// folds away: each shard deduplicates (rule, session) on its own.
	info["sharded_callbacks_not_merged"] = extraCallbacks
	return map[string]metric{
		"fps_serial":           {median(fps[0]), "1/s"},
		"fps_sharded":          {median(fps[1]), "1/s"},
		"fps_coop":             {median(fps[2]), "1/s"},
		"alert_p50_us_sharded": {median(sharded.p50), "us"},
		"alert_p90_us_sharded": {median(sharded.p90), "us"},
		"setup_s":              {median(setup), "s"},
		"live_heap_mb":         {liveHeapMB, "MB"},
		"alloc_b_per_frame":    {allocPerFrame, "B"},
	}, nil
}

// midpoint returns the index of the first frame after the checkpoint.
func midpoint(w *workload) int { return len(w.frames) / 2 }

// serialCheckpoint replays the first half of w and checkpoints it.
func serialCheckpoint(w *workload) (*core.Engine, []byte, error) {
	eng := core.NewEngine(core.Config{})
	for _, f := range w.frames[:midpoint(w)] {
		eng.HandleFrame(f.at, f.data)
	}
	snap, err := eng.Snapshot()
	if err != nil {
		return nil, nil, fmt.Errorf("midpoint snapshot: %w", err)
	}
	return eng, snap, nil
}

// resumeCheck resumes a fresh engine from the midpoint checkpoint, replays
// the second half, and requires the uninterrupted run's alerts.
func resumeCheck(w *workload, t *tally, uninterrupted []core.Alert) {
	_, snap, err := serialCheckpoint(w)
	if err != nil {
		t.run("resume", err.Error())
		return
	}
	eng := core.NewEngine(core.Config{})
	if err := eng.RestoreSnapshot(snap); err != nil {
		t.run("resume", "restore: "+err.Error())
		return
	}
	for _, f := range w.frames[midpoint(w):] {
		eng.HandleFrame(f.at, f.data)
	}
	want := make(map[alertKey]bool)
	for _, a := range uninterrupted {
		want[alertKey{a.Rule, a.Session, a.At}] = true
	}
	p := t.compare("resumed alerts vs uninterrupted", eng.Alerts(), want)
	p = append(p, distillLedger("resumed", eng.DistillerStats())...)
	t.run("resume", p...)
}

// setupTimes measures, repeatedly within d (at least 9 times), the time
// from nothing to an engine ready for frames resumed from the midpoint
// checkpoint: NewEngine plus RestoreSnapshot, or on coop-split both
// probes plus the aggregator's Restore.
func setupTimes(w *workload, d time.Duration) ([]float64, error) {
	var setup func() error
	if w.name == "coop-split" {
		c := newCoop()
		c.feed(w.frames, 0, midpoint(w))
		c.ship()
		edgeSnap, err := c.edge.Snapshot()
		if err != nil {
			return nil, err
		}
		gwSnap, err := c.gateway.Snapshot()
		if err != nil {
			return nil, err
		}
		aggSnap := c.agg.Snapshot()
		setup = func() error {
			edge := core.NewEngine(core.Config{})
			if err := edge.RestoreSnapshot(edgeSnap); err != nil {
				return err
			}
			gw := core.NewEngine(gatewayConfig())
			if err := gw.RestoreSnapshot(gwSnap); err != nil {
				return err
			}
			return coop.NewAggregator(coop.AggregatorConfig{}).Restore(aggSnap)
		}
	} else {
		_, snap, err := serialCheckpoint(w)
		if err != nil {
			return nil, err
		}
		setup = func() error {
			return core.NewEngine(core.Config{}).RestoreSnapshot(snap)
		}
	}
	var out []float64
	b := newBudget(d)
	for rep := 0; b.more(rep, 9); rep++ {
		runtime.GC()
		start := time.Now()
		if err := setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out = append(out, time.Since(start).Seconds())
	}
	return out, nil
}
