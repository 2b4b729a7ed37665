package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// passStats is what one timed pass cost the process.
type passStats struct {
	wall, cpu                time.Duration
	allocBytes, allocObjects uint64
	gcCycles                 uint64
	gcCPU, idleCPU           float64 // runtime estimates, seconds
	schedWaitP99             float64 // goroutine run-queue wait, µs
	peakRSS                  uint64  // largest resident set seen, bytes
}

// plus adds another pass's costs; the sum's sched wait is the larger p99.
func (p passStats) plus(q passStats) passStats {
	return passStats{
		wall: p.wall + q.wall, cpu: p.cpu + q.cpu,
		allocBytes: p.allocBytes + q.allocBytes, allocObjects: p.allocObjects + q.allocObjects,
		gcCycles: p.gcCycles + q.gcCycles, gcCPU: p.gcCPU + q.gcCPU, idleCPU: p.idleCPU + q.idleCPU,
		schedWaitP99: max(p.schedWaitP99, q.schedWaitP99),
		peakRSS:      max(p.peakRSS, q.peakRSS),
	}
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/sched/latencies:seconds",
}

type runtimeReading struct {
	at      time.Time
	cpu     time.Duration
	samples []metrics.Sample
}

func readRuntime() runtimeReading {
	r := runtimeReading{samples: make([]metrics.Sample, len(runtimeSamples))}
	for i, n := range runtimeSamples {
		r.samples[i].Name = n
	}
	metrics.Read(r.samples)
	r.cpu = processCPU()
	r.at = time.Now()
	return r
}

// timed runs fn as one measured pass. The heap is collected first so the
// previous pass's garbage is not billed to this one.
func timed(fn func()) passStats {
	runtime.GC()
	stop, peak := make(chan struct{}), make(chan uint64, 1)
	go sampleRSS(stop, peak)
	before := readRuntime()
	fn()
	after := readRuntime()
	close(stop)
	u := func(i int) uint64 { return after.samples[i].Value.Uint64() - before.samples[i].Value.Uint64() }
	f := func(i int) float64 { return after.samples[i].Value.Float64() - before.samples[i].Value.Float64() }
	return passStats{
		wall:         after.at.Sub(before.at),
		cpu:          after.cpu - before.cpu,
		allocBytes:   u(0),
		allocObjects: u(1),
		gcCycles:     u(2),
		gcCPU:        f(3),
		idleCPU:      f(4),
		schedWaitP99: histDeltaP99(before.samples[5].Value.Float64Histogram(), after.samples[5].Value.Float64Histogram()) * 1e6,
		peakRSS:      <-peak,
	}
}

// sampleRSS reads the process's resident set every 5 ms until stop is
// closed, then sends the largest value read. A pass's own peak is far
// steadier from run to run than the process's lifetime high-water mark,
// which a single badly timed collection sets.
func sampleRSS(stop <-chan struct{}, peak chan<- uint64) {
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	var hi uint64
	for {
		hi = max(hi, residentBytes())
		select {
		case <-stop:
			peak <- max(hi, residentBytes())
			return
		case <-t.C:
		}
	}
}

// residentBytes is the process's resident set size (0 if unreadable).
func residentBytes() uint64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize())
}

// histDeltaP99 is the 99th percentile of the observations added between
// two readings of a cumulative runtime histogram (the upper bucket edge).
func histDeltaP99(before, after *metrics.Float64Histogram) float64 {
	total := uint64(0)
	delta := make([]uint64, len(after.Counts))
	for i := range after.Counts {
		delta[i] = after.Counts[i] - before.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	rank := (total*99 + 99) / 100
	seen := uint64(0)
	for i, n := range delta {
		seen += n
		if seen >= rank {
			return after.Buckets[i+1]
		}
	}
	return after.Buckets[len(after.Buckets)-1]
}

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// span is one traced interval: a call from the benchmark into one layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths pass nil.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

// start opens a span under parent (0 for a root) and returns its id.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes a span opened by start.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// dur returns a closed span's duration in seconds.
func (t *tracer) dur(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id-1]
	return float64(s.End-s.Start) / 1e9
}

// layerTotal sums one span name's durations and self times.
type layerTotal struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	TotS  float64 `json:"total_s"`
	SelfS float64 `json:"self_s"`
}

type spanReport struct {
	Layers []layerTotal `json:"layers"`
	Spans  []span       `json:"spans"`
}

// report computes every span's self time — its duration minus the union
// of its children's intervals — and totals both per span name.
func (t *tracer) report() spanReport {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	totals := map[string]*layerTotal{}
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, curS, curE := int64(0), int64(-1), int64(-1)
		for _, k := range kids {
			if k.Start > curE {
				covered += curE - curS
				curS, curE = k.Start, k.End
			} else if k.End > curE {
				curE = k.End
			}
		}
		covered += curE - curS
		lt := totals[s.Name]
		if lt == nil {
			lt = &layerTotal{Name: s.Name}
			totals[s.Name] = lt
		}
		lt.Count++
		lt.TotS += float64(s.End-s.Start) / 1e9
		lt.SelfS += float64(s.End-s.Start-covered) / 1e9
	}
	rep := spanReport{Spans: t.spans}
	for _, lt := range totals {
		rep.Layers = append(rep.Layers, *lt)
	}
	sort.Slice(rep.Layers, func(i, j int) bool { return rep.Layers[i].SelfS > rep.Layers[j].SelfS })
	return rep
}
