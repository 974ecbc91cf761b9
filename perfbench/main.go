package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// workloadNames lists the workloads in the order BENCHMARK.json gives them.
var workloadNames = []string{"udp-mixed", "tcp-trunk", "coop-split"}

// buildWorkload generates a workload from its seed. scale divides the
// sizes (1 = the benchmark's sizes; the tests use small scales).
func buildWorkload(name string, seed int64, scale int) (*workload, error) {
	mixed := mixedParams{calls: 512 / scale, rounds: 64, attacked: 384 / scale, rate: 18000}
	switch name {
	case "udp-mixed":
		return mixedCalls(name, seed, mixed, false), nil
	case "coop-split":
		return mixedCalls(name, seed, mixed, true), nil
	case "tcp-trunk":
		return tcpTrunk(seed, trunkParams{
			calls: 2000 / scale, concurrent: 16, media: 3,
			attacked: 400 / scale, smuggled: 200 / scale, tunnelled: 200 / scale,
			rate: 10000,
		}), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "udp-mixed", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measuring time of the run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	spans := flag.String("spans", "", "file the traced run writes its spans to (default: none)")
	flag.Parse()
	if (*trace != 0 && *trace != 1) || *seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: want --trace 0 or 1, --seconds >= 1 and no other arguments")
		os.Exit(2)
	}
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *spans); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, measure time.Duration, traced bool, spansPath string) error {
	genStart := time.Now()
	w, err := buildWorkload(name, seed, 1)
	if err != nil {
		return err
	}
	info := map[string]any{
		"workload": name, "seed": seed, "frames": len(w.frames), "expected_alerts": len(w.expect),
		"sizes": w.sizes, "offered_rate_fps": w.rate, "gen_s": time.Since(genStart).Seconds(),
		"host": hostInfo(),
	}
	var t tally
	var metrics map[string]metric
	if traced {
		metrics, err = measureLayers(w, measure, &t, info, spansPath)
	} else {
		metrics, err = measureEndToEnd(w, measure, &t, info)
	}
	if err != nil {
		return err
	}
	// Both read 0 on a correct run, so they fail the run instead of being
	// gated metrics.
	info["alert_error_frac"] = metric{frac(t.missing+t.extra, t.expected), "ratio"}
	info["frames_dropped_frac"] = metric{frac(t.dropped, t.offered), "ratio"}
	info["problems"] = t.problems
	info["warnings"] = t.warnings
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(map[string]any{"info": info}); err != nil {
		return err
	}
	return out.Encode(result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics})
}

func frac(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// hostInfo records what the numbers were measured on.
func hostInfo() map[string]any {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpu_model": model, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
	}
}
