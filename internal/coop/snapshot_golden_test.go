package coop

import (
	"bytes"
	"flag"
	"net/netip"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden aggregator checkpoint")

// TestAggregatorSnapshotGolden pins the exact bytes of an aggregator
// checkpoint (the SCAG envelope around the shared rule-engine codec)
// taken at the midpoint of the 5-probe merge, so an encoder change that
// would strand a deployed aggregator checkpoint fails here first. The
// windowed aggregator holds its events in the merge buffer; the
// immediate one has fed them, so its rule-engine section carries live
// partial matches and absence lookbacks. A deliberate format change
// bumps the envelope or snapshot version and regenerates with:
//
//	go test ./internal/coop -run TestAggregatorSnapshotGolden -update
func TestAggregatorSnapshotGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  AggregatorConfig
	}{
		{"windowed", AggregatorConfig{}},
		{"immediate", AggregatorConfig{Immediate: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkAggregatorGolden(t, tc.cfg, filepath.Join("testdata", "aggregator_probes5_mid_"+tc.name+".ckpt"))
		})
	}
}

func checkAggregatorGolden(t *testing.T, cfg AggregatorConfig, path string) {
	frames := flatten(probeStreams(5))
	agg := NewAggregator(cfg)
	var src netip.AddrPort
	for _, frame := range frames[:len(frames)/2] {
		agg.HandleDigest(src, frame)
	}
	got := agg.Snapshot()
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no golden aggregator checkpoint (run with -update to record): %v", err)
	}
	if !bytes.Equal(got, want) {
		n := 0
		for n < min(len(got), len(want)) && got[n] == want[n] {
			n++
		}
		t.Errorf("aggregator checkpoint encoding changed: %d bytes (golden %d), first difference at offset %d", len(got), len(want), n)
	}
	restored := NewAggregator(cfg)
	if err := restored.Restore(want); err != nil {
		t.Fatalf("golden checkpoint no longer restores: %v", err)
	}
	if again := restored.Snapshot(); !bytes.Equal(again, want) {
		t.Error("restoring the golden checkpoint and snapshotting again changed its bytes")
	}
}
