package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"scidive/internal/core"
)

// testScale shrinks every workload for the tests.
const testScale = 8

func mustBuild(t *testing.T, name string, seed int64) *workload {
	t.Helper()
	w, err := buildWorkload(name, seed, testScale)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// expectCounts counts expected alerts per (rule, engine role).
func expectCounts(w *workload) map[string]int {
	out := make(map[string]int)
	for _, e := range w.expect {
		out[fmt.Sprintf("%s/%d", e.rule, e.by)]++
	}
	return out
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		a, b := mustBuild(t, name, 7), mustBuild(t, name, 7)
		if len(a.frames) != len(b.frames) {
			t.Fatalf("%s: %d vs %d frames for one seed", name, len(a.frames), len(b.frames))
		}
		for i := range a.frames {
			fa, fb := a.frames[i], b.frames[i]
			if fa.at != fb.at || fa.edge != fb.edge || fa.gateway != fb.gateway || !bytes.Equal(fa.data, fb.data) {
				t.Fatalf("%s: frame %d differs between two builds of one seed", name, i)
			}
		}
		if fmt.Sprint(a.expect) != fmt.Sprint(b.expect) {
			t.Fatalf("%s: expected alerts differ between two builds of one seed", name)
		}
	}
}

func TestSeedChangesFramesNotExpectedCounts(t *testing.T) {
	for _, name := range workloadNames {
		a, b := mustBuild(t, name, 1), mustBuild(t, name, 2)
		same := len(a.frames) == len(b.frames)
		for i := 0; same && i < len(a.frames); i++ {
			same = bytes.Equal(a.frames[i].data, b.frames[i].data)
		}
		if same {
			t.Errorf("%s: seeds 1 and 2 gave identical frames", name)
		}
		if ca, cb := expectCounts(a), expectCounts(b); fmt.Sprint(ca) != fmt.Sprint(cb) {
			t.Errorf("%s: expected alert counts depend on the seed: %v vs %v", name, ca, cb)
		}
		if len(a.expect) == 0 {
			t.Errorf("%s: no expected alerts", name)
		}
	}
}

// TestShapesRaiseExpectedAlerts runs every shape closed loop and the
// midpoint resume on every workload and requires every check to pass.
func TestShapesRaiseExpectedAlerts(t *testing.T) {
	for _, name := range workloadNames {
		w := mustBuild(t, name, 3)
		var tl tally
		s := runSerial(w)
		s.check(w, &tl)
		sh := runSharded(w)
		sh.check(w, &tl, ruleSessions(s.eng.Alerts()))
		runCoop(w).check(w, &tl)
		resumeCheck(w, &tl, s.eng.Alerts())
		if tl.failed != 0 || tl.attempted != 4 {
			t.Errorf("%s: %d of %d runs failed: %v", name, tl.failed, tl.attempted, tl.problems)
		}
		if name == "tcp-trunk" {
			for _, h := range sh.health {
				if h.FramesRouted == 0 {
					t.Errorf("tcp-trunk: shard %d routed no frames; the trunks should use both shards", h.Shard)
				}
			}
		}
	}
}

// TestCompositionMatchesEngine checks that the traced run's composition of
// public parts (with the stream-arm stand-in on tcp-trunk) reproduces
// Engine's alerts and events.
func TestCompositionMatchesEngine(t *testing.T) {
	for _, name := range workloadNames {
		w := mustBuild(t, name, 4)
		eng := core.NewEngine(core.Config{}, core.WithEventLog())
		for _, f := range w.frames {
			eng.HandleFrame(f.at, f.data)
		}
		tr := newTracer(0)
		tcp, msgs, _ := compInputs(w)
		c, _ := runComposition(w, tcp, msgs, tr)
		if got, want := len(c.re.Alerts()), len(eng.Alerts()); got != want || want == 0 {
			t.Fatalf("%s: composition raised %d alerts, engine %d", name, got, want)
		}
		for i, a := range c.re.Alerts() {
			b := eng.Alerts()[i]
			if a.Rule != b.Rule || a.Session != b.Session || a.At != b.At {
				t.Fatalf("%s: alert %d: composition %v, engine %v", name, i, a, b)
			}
		}
		if got, want := c.events, len(eng.Events()); got != want {
			t.Fatalf("%s: composition generated %d events, engine %d", name, got, want)
		}
		if tr.count[spanGenerator] != c.views || tr.count[spanRules] != c.events {
			t.Fatalf("%s: span counts %v do not match views %d, events %d", name, tr.count, c.views, c.events)
		}
		if ds := eng.DistillerStats(); tr.count[spanStream] != ds.Streamed || tr.count[spanDistill] != ds.Frames-ds.Streamed+ds.StreamMsgs {
			t.Fatalf("%s: span counts %v do not match the engine's distiller %+v", name, tr.count, ds)
		}
	}
}

// TestLatencyBookkeeping checks that every expected alert names exactly
// one frame and that an open-loop pass times each alerting frame once.
func TestLatencyBookkeeping(t *testing.T) {
	for _, name := range workloadNames {
		w := mustBuild(t, name, 5)
		frames := make(map[int]int) // frames completing an alert of the hub engine
		for _, e := range w.expect {
			i, ok := w.frameAt[e.at]
			if !ok {
				t.Fatalf("%s: expected alert %s at %v names no frame", name, e.rule, e.at)
			}
			if e.by&byHub != 0 {
				frames[i]++
			}
		}
		w.rate = 1e6 // fast pass; the bookkeeping does not depend on the rate
		for shape, run := range map[string]func() openLoopRun{
			"serial":  func() openLoopRun { return openLoopSerial(w) },
			"sharded": func() openLoopRun { return openLoopSharded(w, true) },
		} {
			r := run()
			if r.wantFrames != len(frames) || len(r.latency) != len(frames) {
				t.Errorf("%s %s: %d alerting frames timed, %d expected, %d distinct", name, shape, len(r.latency), r.wantFrames, len(frames))
			}
			for _, d := range r.latency {
				if d < 0 || d > time.Minute {
					t.Errorf("%s %s: implausible latency %v", name, shape, d)
				}
			}
		}
	}
}

// benchmarkMetrics reads the metric names and units BENCHMARK.json
// declares, per mode.
func benchmarkMetrics(t *testing.T) (e2e, layers map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layers[m.Name] = m.Unit
	}
	return e2e, layers
}

// sameMetrics reports a mismatch between reported metrics and a spec.
func sameMetrics(t *testing.T, mode string, got map[string]metric, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics reported, BENCHMARK.json declares %d", mode, len(got), len(want))
	}
	for name, unit := range want {
		if m, ok := got[name]; !ok || m.Unit != unit {
			t.Errorf("%s: metric %s reported as %+v, declared unit %s", mode, name, m, unit)
		}
	}
}

// TestMeasureSmoke runs both measuring modes briefly at test scale and
// requires exactly the metrics BENCHMARK.json declares, with their units.
func TestMeasureSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the measuring loops")
	}
	w, err := buildWorkload("tcp-trunk", 6, 32)
	if err != nil {
		t.Fatal(err)
	}
	w.rate = 2000 // low enough for the serial engine to keep up under -race
	var tl tally
	e2e, err := measureEndToEnd(w, 200*time.Millisecond, &tl, map[string]any{})
	if err != nil {
		t.Fatal(err)
	}
	layers, err := measureLayers(w, 200*time.Millisecond, &tl, map[string]any{}, "")
	if err != nil {
		t.Fatal(err)
	}
	if tl.failed != 0 {
		t.Errorf("%d of %d runs failed: %v", tl.failed, tl.attempted, tl.problems)
	}
	wantE2E, wantLayers := benchmarkMetrics(t)
	sameMetrics(t, "end-to-end", e2e, wantE2E)
	sameMetrics(t, "per-layer", layers, wantLayers)
}

// TestLatencyWindows checks that a burst of stalled alerts moves one
// window's percentiles and not the median over windows.
func TestLatencyWindows(t *testing.T) {
	lat := make([]time.Duration, 4*latWindow)
	for i := range lat {
		lat[i] = time.Duration(20+i%10) * time.Microsecond
	}
	for i := latWindow; i < latWindow+latWindow/4; i++ {
		lat[i] = 5 * time.Millisecond // a stall hits a quarter of the second window
	}
	var s latencyStats
	s.add(lat)
	if len(s.p90) != 4 || s.samples != len(lat) {
		t.Fatalf("%d windows of %d samples, want 4 of %d", len(s.p90), s.samples, len(lat))
	}
	if p90 := median(s.p90); p90 > 30 {
		t.Errorf("median window p90 %.1fus moved by a one-window stall", p90)
	}
	if p99 := s.p99[0]; p99 < 1000 {
		t.Errorf("pooled p99 %.1fus hides the stall", p99)
	}
}
