// Command perfbench is the benchmark of the SEED reproduction. One process
// runs one named workload at one seed:
//
//	perfbench --workload paper-eval|policy-search|fleet-ingest
//	          --seed N --seconds S --trace 0|1
//
// After a cold set-up (input generation plus a warm-up pass) it repeats
// whole rounds of the workload until S seconds have passed, checks every
// round's outputs, and prints an environment block, one line per metric
// with its unit, the operations attempted and failed, and as its last line
// one JSON object {"correct", "attempted", "failed", "metrics"}.
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With --trace 1 each round runs once untraced and once with
// the same calls wrapped in spans; the metrics are then the per-layer
// ones, including the tracing overhead, and the spans are written to
// .bench_build/out/ when the process exits. README.md lists the workloads,
// the metrics and which end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// processStart is taken during package initialisation, so the set-up
// times cover the whole cold set-up of the process.
var processStart = time.Now()

// outDir holds the JSON files a run writes, relative to the checkout root.
const outDir = ".bench_build/out"

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(b *bench) error{
	"paper-eval":    runPaperEval,
	"policy-search": runPolicySearch,
	"fleet-ingest":  runFleetIngest,
}

// endToEnd are the metrics a --trace 0 run reports, in print order: the
// ones that repeat from run to run on a shared machine.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"alloc_mb", "MB"},
}

// timings are the medians over rounds of the timed passes' wall time at
// nproc and at 1 worker, their CPU time and their peak resident set. They
// swing with the load other tenants put on a shared host (README.md gives
// the spreads), so a --trace 0 run prints them as info lines and a
// --trace 1 run reports them with the per-layer metrics.
var timings = []struct{ name, unit string }{
	{"wall_s", "s"},
	{"wall_1w_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: paper-eval, policy-search or fleet-ingest")
	seedVal := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "how long to repeat measured rounds after set-up")
	traced := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload paper-eval|policy-search|fleet-ingest --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}

	b := newBench(*seedVal, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	fmt.Printf("env nproc=%d gomaxprocs=%d go=%s rev=%s workload=%s seed=%d seconds=%g trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gitRev(), *name, *seedVal, *seconds, *traced)
	if err := run(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}

	res := result{Correct: len(b.errs) == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	var order []string
	if b.tr == nil {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{b.e2e(m.name), m.unit}
			order = append(order, m.name)
		}
	} else {
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{b.layer[m.name], m.unit}
			order = append(order, m.name)
		}
	}
	for _, n := range order {
		fmt.Printf("metric %-28s %14.6f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	if b.tr == nil {
		fmt.Printf("info   %-28s %14.6f %s\n", "setup_wall_s", b.setupWall.Seconds(), "s")
		for _, m := range timings {
			fmt.Printf("info   %-28s %14.6f %s\n", m.name, median(b.samples[m.name]), m.unit)
		}
	}
	for _, n := range b.notes {
		fmt.Println("note", n)
	}
	for _, e := range b.errs {
		fmt.Println("CHECK FAILED:", e)
	}
	fmt.Printf("ops attempted=%d failed=%d rounds=%d\n", b.attempted, b.failed, b.rounds)

	kind := "e2e"
	if b.tr != nil {
		kind = "layers"
	}
	// The file keeps every per-round sample next to the reported values.
	file := struct {
		result
		Samples map[string][]float64 `json:"samples"`
	}{res, b.samples}
	if err := writeJSON(fmt.Sprintf("%s-%s.json", *name, kind), file); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if b.tr != nil {
		if err := writeJSON(*name+"-spans.json", b.tr.report()); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// bench is one run's state: its inputs' seed, the measuring deadline, the
// operation counts, failed output checks and the collected samples.
type bench struct {
	seed     int64
	nproc    int
	seconds  time.Duration
	deadline time.Time
	tr       *tracer // nil in untraced runs

	attempted, failed, rounds int
	errs                      []string
	notes                     []string

	samples map[string][]float64 // per-round values, reported as medians
	upload  []float64            // open-loop upload latencies in ms, pooled over untraced rounds
	layer   map[string]float64

	// setupCPU is the process's CPU time at the end of set-up, reported as
	// setup_s. On a shared host the wall-clock set-up (setupWall) of the
	// same fixed work moved far more between sets of runs than CPU time
	// did (README.md), so it is reported as a per-layer figure.
	setupCPU, setupWall time.Duration
}

func newBench(seedVal int64, seconds time.Duration, traced bool) *bench {
	b := &bench{
		seed: seedVal, nproc: runtime.GOMAXPROCS(0), seconds: seconds,
		samples: map[string][]float64{}, layer: map[string]float64{},
	}
	if traced {
		b.tr = newTracer(processStart)
	}
	return b
}

// setupDone ends the cold set-up and starts the measuring window.
func (b *bench) setupDone() {
	b.setupWall = time.Since(processStart)
	b.setupCPU = processCPU()
	b.deadline = time.Now().Add(b.seconds)
	b.layer["setup_wall_s"] = b.setupWall.Seconds()
}

// loop runs whole rounds until the measuring window has passed (at least
// one), so every run attempts the same operations per round.
func (b *bench) loop(round func(i int, tr *tracer) error) error {
	for i := 0; i == 0 || time.Now().Before(b.deadline); i++ {
		if b.tr != nil {
			// The traced run measures each round twice, untraced and traced,
			// and reports the difference as the tracing overhead.
			start := time.Now()
			if err := round(i, nil); err != nil {
				return err
			}
			plain := time.Since(start)
			start = time.Now()
			if err := round(i, b.tr); err != nil {
				return err
			}
			b.add("trace.overhead_s", (time.Since(start) - plain).Seconds())
		} else if err := round(i, nil); err != nil {
			return err
		}
		b.rounds++
	}
	return nil
}

// op counts one attempted operation, failed unless ok.
func (b *bench) op(ok bool) {
	b.attempted++
	if !ok {
		b.failed++
	}
}

// check records a failed output check, any one of which makes the run
// incorrect, and returns ok.
func (b *bench) check(ok bool, format string, args ...any) bool {
	if !ok {
		msg := fmt.Sprintf(format, args...)
		for _, e := range b.errs {
			if e == msg {
				return ok
			}
		}
		b.errs = append(b.errs, msg)
	}
	return ok
}

// note prints one line of context once.
func (b *bench) note(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	for _, n := range b.notes {
		if n == msg {
			return
		}
	}
	b.notes = append(b.notes, msg)
}

// add appends one per-round sample of a metric.
func (b *bench) add(name string, v float64) { b.samples[name] = append(b.samples[name], v) }

// setLayer reports a per-layer metric as the median of its samples.
func (b *bench) setLayer(names ...string) {
	for _, n := range names {
		if s := b.samples[n]; len(s) > 0 {
			b.layer[n] = median(s)
		}
	}
}

// e2e returns an end-to-end metric's value.
func (b *bench) e2e(name string) float64 {
	if name == "setup_s" {
		return b.setupCPU.Seconds()
	}
	return median(b.samples[name])
}

// addPass records one round's samples from its two timed passes. A traced
// run records them from its untraced rounds only.
func (b *bench) addPass(tr *tracer, wide, one passStats) {
	if tr != nil {
		return
	}
	b.add("wall_s", wide.wall.Seconds())
	b.add("wall_1w_s", one.wall.Seconds())
	b.add("cpu_s", (wide.cpu + one.cpu).Seconds())
	b.add("alloc_mb", float64(wide.allocBytes+one.allocBytes)/1e6)
	b.add("peak_rss_mb", float64(max(wide.peakRSS, one.peakRSS))/1e6)
	b.add("runtime.gc_cpu_s", wide.gcCPU+one.gcCPU)
	b.add("runtime.alloc_objects", float64(wide.allocObjects+one.allocObjects))
	b.add("runtime.gc_cycles", float64(wide.gcCycles+one.gcCycles))
	b.add("runtime.idle_cpu_s", wide.idleCPU)
	b.add("runtime.sched_wait_p99_us", wide.schedWaitP99)
}

// finishRuntimeLayers reports the runtime, tracing and timing per-layer
// metrics.
func (b *bench) finishRuntimeLayers() {
	b.setLayer("runtime.gc_cpu_s", "runtime.alloc_objects", "runtime.gc_cycles",
		"runtime.idle_cpu_s", "runtime.sched_wait_p99_us", "trace.overhead_s")
	for _, m := range timings {
		b.setLayer(m.name)
	}
}

// gitRev is the source revision the binary was built from, when the
// build could see the repository.
func gitRev() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

func writeJSON(name string, v any) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, name), append(blob, '\n'), 0o644)
}

// median returns the middle value (mean of the middle two), 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile, 0 when empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(p/100*float64(len(s))+0.5) - 1
	k = max(0, min(k, len(s)-1))
	return s[k]
}

// mean returns the arithmetic mean, 0 when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
