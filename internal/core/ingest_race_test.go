package core_test

// Race coverage for the partitioned ingest handoff: many goroutines
// feeding the ingest tier while others drain it (Flush/Alerts/
// TrailCounts), shed under pressure, and close it mid-stream. Run with
// `go test -race -short ./internal/core/`.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"scidive/internal/core"
)

// TestIngestHandoffRace hammers feed vs drain vs read on an engine with
// 4 ingest lanes and 8 shards.
func TestIngestHandoffRace(t *testing.T) {
	feeders := 4
	readers := 4
	rounds := 8
	if testing.Short() {
		rounds = 3
	}

	var corpus [][]rec
	for _, name := range []string{"benign", "bye", "rtp", "flood"} {
		corpus = append(corpus, scenarioFrames(t, name, 11))
	}
	corpus = append(corpus, synthFrames(1), synthFrames(2))

	eng := core.NewShardedEngine(core.Config{IngestRouters: 4}, 8, core.WithEventLog())
	defer eng.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch r % 4 {
				case 0:
					_ = eng.Stats()
					_ = eng.DistillerStats()
				case 1:
					_ = eng.Alerts()
				case 2:
					_, _ = eng.TrailCounts()
				default:
					// Flush races the feeders' handoff directly: drain
					// markers interleave with data batches in the lanes.
					eng.Flush()
					_ = eng.IngestHealth()
				}
				time.Sleep(time.Millisecond)
			}
		}(r)
	}

	var feedWG sync.WaitGroup
	for f := 0; f < feeders; f++ {
		feedWG.Add(1)
		go func(f int) {
			defer feedWG.Done()
			for round := 0; round < rounds; round++ {
				frames := corpus[(f+round)%len(corpus)]
				for _, r := range frames {
					eng.HandleFrame(r.at, r.frame)
				}
			}
		}(f)
	}
	feedWG.Wait()
	close(stop)
	wg.Wait()

	eng.Flush()
	st := eng.Stats()
	if st.Frames == 0 || st.Footprints == 0 || st.Events == 0 {
		t.Fatalf("engine processed nothing: %+v", st)
	}
	if len(eng.Alerts()) == 0 {
		t.Fatal("expected alerts from attack scenarios")
	}
	for _, h := range eng.IngestHealth() {
		if h.FramesFed != h.FramesSequenced {
			t.Errorf("lane %d: fed %d != sequenced %d after flush", h.Ingester, h.FramesFed, h.FramesSequenced)
		}
	}
	ds := eng.DistillerStats()
	engineLedger(t, "ingest hammer", ds)
	if ds.Frames != st.Frames {
		t.Errorf("distiller counted %d frames, engine accepted %d", ds.Frames, st.Frames)
	}
}

// slowShard stalls every frame on shard 0, keeping its queue saturated.
type slowShard struct{ d time.Duration }

func (s slowShard) At(shard int, frame uint64) core.Fault {
	if shard == 0 {
		return core.Fault{Stall: s.d}
	}
	return core.Fault{}
}

// TestIngestShedRace layers load shedding on top of the parallel
// handoff: a stalling fault injector keeps shard 0 saturated so the
// bounded-wait shed path runs while the feeders are racing, and every
// dropped frame must still be accounted. The single-router input runs
// the same shed path from HandleFrame itself.
func TestIngestShedRace(t *testing.T) {
	frames := scenarioFrames(t, "flood", 11)
	for _, ingest := range []int{4, 1} {
		t.Run(fmt.Sprintf("ingest=%d", ingest), func(t *testing.T) {
			eng := core.NewShardedEngine(core.Config{
				IngestRouters: ingest,
				Limits:        core.Limits{ShedAfter: 20 * time.Microsecond},
			}, 2, core.WithEventLog(), core.WithFaultInjector(slowShard{d: time.Millisecond}))
			defer eng.Close()

			var feedWG sync.WaitGroup
			for f := 0; f < 4; f++ {
				feedWG.Add(1)
				go func() {
					defer feedWG.Done()
					for round := 0; round < 3; round++ {
						for _, r := range frames {
							eng.HandleFrame(r.at, r.frame)
						}
					}
				}()
			}
			feedWG.Wait()
			eng.Flush()
			st := eng.Stats()
			var processed, shed uint64
			for _, sh := range eng.ShardHealth() {
				if sh.FramesRouted != sh.FramesProcessed+sh.FramesShed {
					t.Errorf("shard %d: routed %d != processed %d + shed %d",
						sh.Shard, sh.FramesRouted, sh.FramesProcessed, sh.FramesShed)
				}
				processed += sh.FramesProcessed
				shed += sh.FramesShed
			}
			if shed == 0 {
				t.Skip("no shed under this scheduling; ledger still verified")
			}
			if st.FramesShed != int(shed) {
				t.Errorf("stats FramesShed %d != shard ledger %d", st.FramesShed, shed)
			}
		})
	}
}

// TestIngestCloseRace closes the engine while feeders are mid-stream:
// no panic, no lost accounting — every fed frame is either sequenced or
// counted as arriving after close.
func TestIngestCloseRace(t *testing.T) {
	frames := scenarioFrames(t, "bye", 11)
	for round := 0; round < 10; round++ {
		eng := core.NewShardedEngine(core.Config{IngestRouters: 2}, 4, core.WithEventLog())
		var feedWG sync.WaitGroup
		for f := 0; f < 3; f++ {
			feedWG.Add(1)
			go func() {
				defer feedWG.Done()
				for _, r := range frames {
					eng.HandleFrame(r.at, r.frame)
				}
			}()
		}
		eng.Close()
		feedWG.Wait()
		st := eng.Stats()
		if st.Frames+st.FramesAfterClose != 3*len(frames) {
			t.Fatalf("round %d: %d sequenced + %d after close != %d fed",
				round, st.Frames, st.FramesAfterClose, 3*len(frames))
		}
	}
}
