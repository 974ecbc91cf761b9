package core_test

// Race coverage for ShardedEngine: many goroutines feeding frames while
// others concurrently read Stats, Alerts and TrailCounts. Run with
// `go test -race -short ./internal/core/`.

import (
	"sync"
	"testing"
	"time"

	"scidive/internal/core"
)

func TestShardedEngineRace(t *testing.T) {
	feeders := 4
	readers := 3
	rounds := 8
	if testing.Short() {
		rounds = 3
	}

	var corpus [][]rec
	for _, name := range []string{"benign", "bye", "rtp", "flood"} {
		corpus = append(corpus, scenarioFrames(t, name, 11))
	}
	corpus = append(corpus, synthFrames(1), synthFrames(2))

	eng := core.NewShardedEngine(core.Config{}, 8, core.WithEventLog())
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
				switch r % 3 {
				case 0:
					_ = eng.Stats()
					_ = eng.DistillerStats()
				case 1:
					_ = eng.Alerts()
				default:
					_, _ = eng.TrailCounts()
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
	// Router-absorbed and shard-processed frames are counted on different
	// goroutines; after Flush every accepted frame is in the ledger once.
	ds := eng.DistillerStats()
	engineLedger(t, "hammer", ds)
	if ds.Frames != st.Frames {
		t.Errorf("distiller counted %d frames, engine accepted %d", ds.Frames, st.Frames)
	}
}
