package core_test

// Cross-geometry resume differential: portable (v3) checkpoints are keyed
// by session, not by shard, so a checkpoint written at one engine
// geometry must resume at ANY other — serial or sharded, narrower or
// wider, with or without parallel ingest — and the resumed run must be
// byte-identical (under the Footprint-free keys) to an uninterrupted run.
// This is the elastic-operations proof: growing 8 shards to 32 is
// checkpoint → restart wider → resume, and these tests hold every
// capture × resume geometry pair to the uninterrupted baseline.

import (
	"fmt"
	"testing"

	"scidive/internal/core"
	"scidive/internal/experiments"
)

// geometry is one engine shape: shards == 0 runs the serial Engine
// (ingest is meaningless there); shards >= 1 runs the ShardedEngine with
// that many ingest routers (1 = the synchronous router).
type geometry struct {
	shards, ingest int
}

func (g geometry) String() string {
	if g.shards == 0 {
		return "serial"
	}
	return fmt.Sprintf("shards%d/ingest%d", g.shards, g.ingest)
}

// captureGeometries are the shapes checkpoints are written at, and
// resumeGeometries the shapes they are resumed at. The two sets
// deliberately share almost nothing: every pair crosses engine kind,
// shard count, or ingest width.
var (
	captureGeometries = []geometry{
		{shards: 0},
		{shards: 1, ingest: 1},
		{shards: 8, ingest: 1},
		{shards: 8, ingest: 2},
	}
	resumeGeometries = []geometry{
		{shards: 0},
		{shards: 1, ingest: 1},
		{shards: 2, ingest: 1},
		{shards: 2, ingest: 4},
		{shards: 32, ingest: 1},
		{shards: 32, ingest: 4},
	}
	// shortCaptureGeometries/shortResumeGeometries keep -short mode to the
	// extremes: serial ↔ widest, narrow ↔ wide with parallel ingest.
	shortCaptureGeometries = []geometry{{shards: 0}, {shards: 8, ingest: 2}}
	shortResumeGeometries  = []geometry{{shards: 0}, {shards: 2, ingest: 1}, {shards: 32, ingest: 4}}
)

// checkpointAt feeds frames[:k] through an engine of the given geometry
// and returns its checkpoint bytes.
func checkpointAt(t *testing.T, frames []rec, k int, g geometry, cfg core.Config) []byte {
	t.Helper()
	if g.shards == 0 {
		eng := core.NewEngine(cfg, core.WithEventLog())
		for _, r := range frames[:k] {
			eng.HandleFrame(r.at, r.frame)
		}
		snap, err := eng.Snapshot()
		if err != nil {
			t.Fatalf("%v snapshot at frame %d: %v", g, k, err)
		}
		return snap
	}
	gcfg := cfg
	gcfg.IngestRouters = g.ingest
	eng := core.NewShardedEngine(gcfg, g.shards, core.WithEventLog())
	defer eng.Close()
	for _, r := range frames[:k] {
		eng.HandleFrame(r.at, r.frame)
	}
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatalf("%v snapshot at frame %d: %v", g, k, err)
	}
	return snap
}

// resumeAt restores a checkpoint into a fresh engine of the given
// geometry, feeds it frames[k:], and returns the final outputs.
func resumeAt(t *testing.T, snap []byte, frames []rec, k int, g geometry, cfg core.Config) ([]core.Alert, []core.Event, core.EngineStats) {
	t.Helper()
	if g.shards == 0 {
		eng := core.NewEngine(cfg, core.WithEventLog())
		if err := eng.RestoreSnapshot(snap); err != nil {
			t.Fatalf("%v restore: %v", g, err)
		}
		for _, r := range frames[k:] {
			eng.HandleFrame(r.at, r.frame)
		}
		return eng.Alerts(), eng.Events(), eng.Stats()
	}
	gcfg := cfg
	gcfg.IngestRouters = g.ingest
	eng := core.NewShardedEngine(gcfg, g.shards, core.WithEventLog())
	defer eng.Close()
	if err := eng.RestoreSnapshot(snap); err != nil {
		t.Fatalf("%v restore: %v", g, err)
	}
	for _, r := range frames[k:] {
		eng.HandleFrame(r.at, r.frame)
	}
	eng.Flush()
	for _, h := range eng.ShardHealth() {
		if h.FramesRouted != h.FramesProcessed+h.FramesShed {
			t.Errorf("%v shard %d ledger does not reconcile after cross-geometry restore: routed=%d processed=%d shed=%d",
				g, h.Shard, h.FramesRouted, h.FramesProcessed, h.FramesShed)
		}
	}
	return eng.Alerts(), eng.Events(), eng.Stats()
}

// TestCrossGeometryResumeDifferential checkpoints mid-scenario at every
// capture geometry and resumes each checkpoint at every resume geometry;
// all pairs must reproduce the uninterrupted serial run exactly.
func TestCrossGeometryResumeDifferential(t *testing.T) {
	captures, resumes := captureGeometries, resumeGeometries
	if testing.Short() {
		captures, resumes = shortCaptureGeometries, shortResumeGeometries
	}
	for _, name := range experiments.ScenarioNames() {
		if testing.Short() && !shortKillScenarios[name] {
			continue
		}
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			frames := scenarioFrames(t, name, 7)
			k := len(frames) / 2
			wantAlerts, wantEvents, wantStats := runSerialCfg(frames, core.Config{})
			for _, cg := range captures {
				snap := checkpointAt(t, frames, k, cg, core.Config{})
				for _, rg := range resumes {
					gotAlerts, gotEvents, gotStats := resumeAt(t, snap, frames, k, rg, core.Config{})
					compareToBaseline(t, fmt.Sprintf("%s: %v ckpt → %v resume", name, cg, rg),
						gotAlerts, gotEvents, gotStats, wantAlerts, wantEvents, wantStats)
					if t.Failed() {
						return
					}
				}
			}
		})
	}
}

// checkpointProvenance is the header span (engine kind at offset 5, shard
// and ingest widths at 6..13) that records which geometry wrote a
// checkpoint, and checksumLen the trailing checksum that covers it: the
// only bytes two checkpoints of the same logical state may differ in.
const (
	provenanceStart, provenanceEnd = 5, 14
	checksumLen                    = 8
)

// sameCheckpointState reports where two checkpoints of what should be the
// same logical state differ outside the provenance fields and checksum.
func sameCheckpointState(t *testing.T, label string, got, want []byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: checkpoint is %d bytes, want %d", label, len(got), len(want))
		return
	}
	for i := 0; i < len(want)-checksumLen; i++ {
		if i == provenanceStart {
			i = provenanceEnd
		}
		if got[i] != want[i] {
			t.Errorf("%s: checkpoint differs at offset %d (outside the header's provenance fields)", label, i)
			return
		}
	}
}

// TestCrossGeometrySnapshotBytes pins the stronger property the portable
// format was built around: the checkpoint BYTES of the same logical state
// are identical no matter which geometry serialized them, because every
// writer works from a session-keyed global view with deterministic
// ordering. Capture geometry is recorded in the header purely as
// provenance — its fields and the trailing checksum that covers them are
// the only bytes allowed to differ. Every scenario is held to this,
// including the ones whose frames the sharded router absorbs (fragments,
// TCP segments, unclaimed traffic), which the distiller-stats block
// must count exactly as the serial distiller does.
func TestCrossGeometrySnapshotBytes(t *testing.T) {
	for _, name := range experiments.ScenarioNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			frames := scenarioFrames(t, name, 7)
			k := len(frames) / 2
			want := checkpointAt(t, frames, k, geometry{shards: 0}, core.Config{})
			for _, g := range []geometry{{shards: 1, ingest: 1}, {shards: 2, ingest: 1}, {shards: 8, ingest: 2}} {
				sameCheckpointState(t, fmt.Sprintf("%s: %v vs serial", name, g), checkpointAt(t, frames, k, g, core.Config{}), want)
			}
		})
	}
}

// resnapshotAt restores a checkpoint into a fresh engine of the given
// geometry and snapshots it again before any further frame.
func resnapshotAt(t *testing.T, snap []byte, g geometry) []byte {
	t.Helper()
	if g.shards == 0 {
		eng := core.NewEngine(core.Config{}, core.WithEventLog())
		if err := eng.RestoreSnapshot(snap); err != nil {
			t.Fatalf("%v restore: %v", g, err)
		}
		again, err := eng.Snapshot()
		if err != nil {
			t.Fatalf("%v re-snapshot: %v", g, err)
		}
		return again
	}
	eng := core.NewShardedEngine(core.Config{IngestRouters: g.ingest}, g.shards, core.WithEventLog())
	defer eng.Close()
	if err := eng.RestoreSnapshot(snap); err != nil {
		t.Fatalf("%v restore: %v", g, err)
	}
	again, err := eng.Snapshot()
	if err != nil {
		t.Fatalf("%v re-snapshot: %v", g, err)
	}
	return again
}

// TestRestoreResnapshotIdentity is the decode→encode half of the one
// body codec: a checkpoint captured at any geometry, restored into any
// engine kind and shard count and snapshotted again at once, reproduces
// its own bytes (outside the provenance fields and checksum). Restore
// installs everything the body holds, and the writer encodes everything
// it installed.
func TestRestoreResnapshotIdentity(t *testing.T) {
	captures := []geometry{{shards: 0}, {shards: 1, ingest: 1}, {shards: 8, ingest: 2}}
	restores := []geometry{{shards: 0}, {shards: 1, ingest: 1}, {shards: 2, ingest: 1}, {shards: 8, ingest: 1}}
	for _, name := range experiments.ScenarioNames() {
		if testing.Short() && !shortKillScenarios[name] {
			continue
		}
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			frames := scenarioFrames(t, name, 7)
			k := len(frames) / 2
			for _, cg := range captures {
				snap := checkpointAt(t, frames, k, cg, core.Config{})
				for _, rg := range restores {
					sameCheckpointState(t, fmt.Sprintf("%s: %v ckpt → %v restore → snapshot", name, cg, rg), resnapshotAt(t, snap, rg), snap)
				}
			}
		})
	}
}
