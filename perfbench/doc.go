// Command perfbench is the SCIDIVE benchmark: one command that generates
// each workload from a seed, drives the detection engines through their
// public API from a single goroutine, checks every alert against the set
// the workload must raise, and prints the end-to-end metrics (or, traced,
// the per-layer metrics) by name and unit.
//
// Run one workload from the repository root:
//
//	python3 perfbench/run.py --workload udp-mixed --seed 1 --seconds 20 --trace 0
//
// and the same workload traced, which also writes every span to
// .bench_build/spans-udp-mixed.csv:
//
//	python3 perfbench/run.py --workload udp-mixed --seed 1 --seconds 20 --trace 1
//
// run.py builds this package (a module of its own, requiring the
// repository's module by a relative replace) into .bench_build and runs
// it; `go run . --workload tcp-trunk` from this directory does the same
// by hand. The last line of standard output is
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
//
// and the line before it is an "info" object: the host (CPU model, nproc,
// GOMAXPROCS, Go version), the seed, the workload sizes and offered rate,
// sample counts, p99 latencies, alert_error_frac, frames_dropped_frac and
// the text of any failed check.
//
// # Shapes
//
//   - serial: core.Engine.
//   - sharded: core.NewShardedEngine with 2 shards and 1 ingest router
//     (sized for a 2-CPU host).
//   - coop: two serial-engine probes on two vantages of the capture (edge:
//     every SIP-port frame, exporting sip-bye; gateway: every frame with a
//     phone or trunk PBX as an endpoint, running RTPActivityEvery
//     heartbeats and exporting rtp-activity). Every 1024 capture frames
//     their core.Exporter digests go through EncodeDigest into one offline
//     coop.Aggregator, finalized at the end.
//
// Each shape is driven closed loop for throughput (the next frame is sent
// when HandleFrame returns; the run ends with the final Flush or
// Finalize) and, serial and sharded, open loop for latency (frames are
// due on a fixed schedule at the workload's offered rate; the generator
// spins until each is due; every alert is timed from the due time of the
// frame that completed it, found by Alert.At since frame times are
// unique).
//
// # Workloads
//
//   - udp-mixed: 512 concurrent calls set up through a proxy (INVITE and
//     200 on both proxy legs, end-to-end ACK), then interleaved two-way
//     G.711 RTP (94% of the ~53k frames). 384 seeded calls get the Figure 5
//     forged BYE (spoofed from the caller, to the callee) and two orphan
//     media frames; the rest end with a two-sided BYE/200; each call ends
//     in a seeded round of the second half. Why: the media fast path with
//     a large live-session table; the classification ladder and the TCP
//     arm do no work. Offered 18k frames/s.
//   - tcp-trunk: 2000 short calls, 16 in flight, signalled over two
//     long-lived TCP trunk connections whose messages are sent whole,
//     split mid-header or coalesced; each call sends three rounds of UDP
//     media (~28k frames, 12000 SIP messages). 400 calls end with a forged
//     in-stream BYE, 200 smuggle a SIP request inside RTP, 200 tunnel an
//     RTP packet through the trunk stream. Why: signalling-heavy; stream
//     reassembly and framing, SIP parsing, session create and teardown,
//     the content-confirmation ladder and rule feed carry the cost.
//     Offered 10k frames/s.
//   - coop-split: the udp-mixed calls, but the forged BYE goes from the
//     attacker's own address to the proxy, which absorbs it, so both
//     phones stream on. Only the edge probe sees the BYE and only the
//     gateway probe sees the media; only the aggregator convicts
//     (bye-teardown-split, on the second gateway heartbeat after the BYE),
//     while the hub engine of the serial and sharded shapes raises
//     bye-attack. Why: the only workload where the exporter, the digest
//     codec, the aggregator merge and the cross-point rules carry the
//     detection; its frames match udp-mixed, so a frame-pipeline change
//     shows on both and a coop change only here. Offered 18k frames/s.
//
// Every alert-raising share is a fixed count, so a seed changes the
// frames but not the expected alert counts. The offered rates leave at
// least 2x headroom over the serial engine's slowest tenth of each capture
// on a 2-vCPU Xeon host, so both shapes keep up. The two trunks of
// tcp-trunk use ports that the router hashes to different shards,
// independent of the seed.
//
// # End-to-end metrics (tracing off)
//
//	fps_serial, fps_sharded, fps_coop   1/s  higher  closed-loop frames/s over the whole capture (coop counts tap frames once), median of repeated replays
//	alert_p50_us_sharded                us   lower   open-loop detection latency, due time of the completing frame to OnAlert: median over 64-alert windows of every pass of the window's p50
//	alert_p90_us_sharded                us   lower   the same for p90
//	setup_s                             s    lower   NewEngine + RestoreSnapshot from the midpoint checkpoint (coop-split: both probes + Aggregator.Restore), median of repeats
//	live_heap_mb                        MB   lower   heap in use after the serial (coop-split: coop) replay and a GC, capture excluded
//	alloc_b_per_frame                   B    lower   TotalAlloc growth per frame over that replay
//
// p90 is the gated tail: with 384 to 601 alerting frames per pass, p99
// rests on a handful of samples and swings with every host stall (0.1 to
// 29 ms per pass on a shared 2-vCPU VM), so it did not repeat; each pass's
// p99 and the sample counts are printed in the info line. Each pass's
// alerting frames, in due order, are cut into windows of at least 64, and
// a percentile is the median over all windows of the window's percentile,
// so a stall, which delays the few alerts due around it, moves one window
// and not the figure (see latencyStats). The price: a regression that only
// adds rare long pauses shows in p99, not in the gated figures. Sharded
// latency is set by the router shipping a 64-frame batch to a shard only
// when it is full, so it is milliseconds, and it depends on where the
// capture puts the alerting frames in those batches. Serial latency
// (alert_p50_us_serial, alert_p90_us_serial) is measured the same way but
// printed under "ungated" in the info line: at tens of microseconds it
// rides on host stalls and memory contention, and on a shared 2-vCPU VM
// its ten-run spread reached 0.39 of the median (p90) and its median moved
// 24% between two sets of ten runs (p50), beyond any bound the benchmark
// may set.
//
// Checked on every run, and counted as a failed run when violated: alerts
// of every shape against the expected set (alert_error_frac = missing plus
// unexpected over expected), serial and sharded (rule, session) sets
// equal, a resume from the midpoint checkpoint giving the uninterrupted
// run's alerts, FramesRouted == FramesProcessed + FramesShed on every
// shard after Flush, the distiller ledger Frames + StreamMsgs == the
// terminal counters, shed or after-close frames (frames_dropped_frac),
// and in the open loop that the generator's median lateness stays below
// the median latency it measured (for the printed-only serial latency a
// lapse is a warning in the info line, which voids that figure but not
// the run). alert_error_frac and frames_dropped_frac are 0 on a correct
// run, so they are printed in the info line (with their unit) rather
// than gated.
//
// # Per-layer metrics (--trace 1) and the end-to-end metric each should move
//
//	distill.ns_per_frame        ns     Distiller.DistillView            fps_serial, alert_p50_us_serial on udp-mixed
//	distill.mismatch_frac       ratio  DistillerStats Mismatched/Frames fps_* on tcp-trunk; 0 on udp-mixed
//	generator.ns_per_view       ns     EventGenerator.ProcessView       fps_serial on udp-mixed and tcp-trunk
//	generator.events_per_view   ratio  events per view                  fps_serial on udp-mixed and tcp-trunk
//	rules.ns_per_event          ns     RuleEngine.Feed                  fps_coop on coop-split, fps_* on tcp-trunk
//	packet.stream_ns_per_seg    ns     TCP decode, reassembly, framing  fps_* on tcp-trunk; 0 on udp-mixed
//	sip.parse_ns_per_msg        ns     sip.Parser.Parse, every SIP msg  fps_* on tcp-trunk
//	engine.other_ns_per_frame   ns     Engine.HandleFrame minus spans   fps_serial (near 0; host drift between the engine and
//	                                                                 the traced replays can make it slightly negative)
//	router.ns_per_frame         ns     caller time in HandleFrame       fps_sharded on udp-mixed
//	router.busy_frac            ratio  that time over the run's wall    fps_sharded on udp-mixed
//	router.backlog_max_frames   count  max sum routed-processed         alert_p50_us_sharded, fps_sharded
//	router.drain_ms             ms     the final Flush                  alert_p50_us_sharded, fps_sharded
//	digest.encode_ns_per_event  ns     EncodeDigest                     fps_coop on coop-split
//	digest.decode_ns_per_event  ns     DecodeDigest                     fps_coop on coop-split
//	digest.bytes_per_event      B      encoded digest bytes             fps_coop on coop-split
//	coop.merge_ns_per_event     ns     HandleDigest + Finalize          fps_coop on coop-split
//	snapshot.encode_ms          ms     Engine.Snapshot at the midpoint  setup_s on udp-mixed and tcp-trunk
//	snapshot.bytes              B      checkpoint size                  setup_s on udp-mixed and tcp-trunk
//	snapshot.restore_ms         ms     Engine.RestoreSnapshot           setup_s on udp-mixed and tcp-trunk
//	loadgen.late_p50_us         us     open-loop generator lateness     (validity of the latency metrics)
//	loadgen.late_max_ms         ms     its maximum                      (validity of the latency metrics)
//	trace.overhead_frac         ratio  traced / untraced composition - 1
//	trace.coverage_frac         ratio  span time / traced pass time     at least 0.9, or the traced run fails
//
// The traced serial path is the public pipeline composed from its parts
// (NewDistiller, DistillView, NewEventGenerator(...).ProcessView,
// NewRuleEngine(...).Feed), one span per call. The engine's TCP stream
// arm is internal, so the composition stands in for it with the public
// packet.StreamReassembler and sip.StreamFramer (the packet.stream span)
// and hands each framed message to DistillView as a datagram between the
// same endpoints; the tests hold the composition to the engine's alerts
// and events on every workload, and every traced pass is checked against
// the expected alerts. sip.Parser.Parse is timed on its own over every
// SIP message of the capture (it also runs inside DistillView). The coop
// pass puts spans on Exporter.Observe, Exporter.Flush, EncodeDigest,
// DecodeDigest, HandleDigest and Finalize. All spans of a frame carry its
// capture index; they are kept in memory and written at the end as CSV
// (pass,frame,layer,start_ns,end_ns). The info line gives each layer's
// share of Engine.HandleFrame time and names the one that dominates.
package main
