package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/seed5g/seed/internal/cause"
	"github.com/seed5g/seed/internal/core"
	"github.com/seed5g/seed/internal/fleet"
	"github.com/seed5g/seed/internal/report"
	"github.com/seed5g/seed/internal/sched"
)

// Fleet workload make-up. Each device sends one sealed upload of its
// learning records, one sealed failure report and one model query.
const (
	fleetRecords = 4  // learning-record rows drawn per device
	fleetCauses  = 12 // customized cause codes per plane
)

// The closed-loop passes send closedDevices devices; the open-loop pass
// sends openDevices at openRate arrivals per second, well under the ~10k
// devices/s two connections sustain on two CPUs, so it measures latency,
// not a growing backlog.
const (
	closedDevices = 12000
	openDevices   = 1500
	openRate      = 1000
)

// spanEvery samples the devices a traced pass records spans for: one in
// 32 keeps a run's spans to a few MB while every layer call still shows.
const spanEvery = 32

// journalDevices is the device count of the traced run's durable pass.
const journalDevices = 4000

// warmDevices is the device count of the set-up's warm-up pass.
const warmDevices = 6000

// device is one simulated device's deterministic load.
type device struct {
	imsi    string
	records map[cause.Cause]map[core.ActionID]int
	report  []byte
	query   cause.Cause
}

func genDevice(rootSeed int64, i int) device {
	rng := rand.New(rand.NewSource(sched.DeriveSeed(rootSeed, uint64(i))))
	d := device{imsi: fmt.Sprintf("310170%09d", i+1), records: map[cause.Cause]map[core.ActionID]int{}}
	for r := 0; r < fleetRecords; r++ {
		c := cause.Cause{Plane: cause.ControlPlane, Code: cause.Code(150 + rng.Intn(fleetCauses))}
		if rng.Intn(2) == 1 {
			c.Plane = cause.DataPlane
		}
		a := core.LearningOrder[rng.Intn(len(core.LearningOrder))]
		if d.records[c] == nil {
			d.records[c] = map[core.ActionID]int{}
		}
		d.records[c][a] += 1 + rng.Intn(3)
		d.query = c
	}
	rep := report.FailureReport{Type: report.FailTCP, Direction: report.DirUplink, Addr: [4]byte{10, 0, 0, byte(rng.Intn(256))}, Port: 443}
	if rng.Intn(2) == 1 {
		rep = report.FailureReport{Type: report.FailDNS, Direction: report.DirBoth, Domain: "fleet.example.com"}
	}
	d.report = rep.Marshal()
	return d
}

// server starts a fresh server on nproc shards; a non-empty journal
// directory makes it durable.
func server(b *bench, journal string) (*fleet.Server, error) {
	s := fleet.NewServer(fleet.ServerConfig{Addr: "127.0.0.1:0", Shards: b.nproc, JournalDir: journal, Logf: func(string, ...any) {}})
	if err := s.Start(); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	return s, nil
}

// exchange performs one device's upload, report and query. It returns the
// time the upload was acknowledged.
func exchange(cl *fleet.Client, d *device, tr *tracer, parent int) (time.Time, error) {
	dev := fleet.NewSimDevice(fleet.DefaultMasterKey, d.imsi)
	id := tr.start("fleet.seal", parent)
	sealed, err := dev.SealRecords(core.MarshalRecords(d.records))
	tr.end(id)
	if err != nil {
		return time.Time{}, err
	}
	id = tr.start("fleet.upload", parent)
	err = cl.UploadRecords(d.imsi, sealed)
	tr.end(id)
	acked := time.Now()
	if err != nil {
		return acked, err
	}
	sr, err := dev.SealReport(d.report)
	if err != nil {
		return acked, err
	}
	id = tr.start("fleet.report", parent)
	err = cl.Report(d.imsi, sr)
	tr.end(id)
	if err != nil {
		return acked, err
	}
	id = tr.start("fleet.query", parent)
	_, _, err = dev.QuerySuggestion(cl, d.query)
	tr.end(id)
	return acked, err
}

// drive runs every device through one client of width connections on
// width workers. With rate > 0 device i is due at i/rate seconds (open
// loop) and its upload latency is returned, with the generator's
// lateness; otherwise each worker sends its next device as soon as the
// previous one is done.
func drive(b *bench, s *fleet.Server, devs []device, width int, rate float64, tr *tracer, parent int) (cl *fleet.Client, lat, lag []float64, failed int) {
	cl = fleet.NewClient(fleet.ClientConfig{Addr: s.Addr().String(), Conns: width, Seed: b.seed})
	lats := make([][]float64, width)
	lags := make([][]float64, width)
	fails := make([]int, width)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(devs); i += width {
				var sent time.Time
				if rate > 0 {
					// A device whose worker was still busy when it fell due
					// is timed from its due time, so a stall counts against
					// every request it delays. A worker that was free sleeps
					// until the due time; the sleep's overshoot (about 1 ms:
					// the runtime's idle timer granularity) is the
					// generator's lateness, reported apart.
					due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
					sent = due
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
						sent = time.Now()
						lags[w] = append(lags[w], float64(sent.Sub(due))/1e6)
					}
				}
				dtr := tr
				if i%spanEvery != 0 {
					dtr = nil
				}
				id := dtr.start("fleet.device", parent)
				acked, err := exchange(cl, &devs[i], dtr, id)
				dtr.end(id)
				if err != nil {
					fails[w]++
					continue
				}
				if rate > 0 {
					lats[w] = append(lats[w], float64(acked.Sub(sent))/1e6)
				}
			}
		}(w)
	}
	wg.Wait()
	for w := range lats {
		lat = append(lat, lats[w]...)
		lag = append(lag, lags[w]...)
		failed += fails[w]
	}
	return cl, lat, lag, failed
}

// fold is the in-process sequential baseline: one core.Learner fed every
// device's records, serialized as the server serializes its model.
func fold(seedVal int64, devs []device) []byte {
	l := core.NewLearner(0.1, rand.New(rand.NewSource(seedVal)))
	for i := range devs {
		l.Crowdsource(devs[i].records)
	}
	return fleet.MarshalModel(l.Export())
}

// verify holds a server's state after a pass to what the devices sent and
// to the in-process fold of the same records.
func verify(b *bench, s *fleet.Server, devs []device, want []byte, what string) {
	st := s.Stats()
	rows := uint64(0)
	for i := range devs {
		for _, acts := range devs[i].records {
			rows += uint64(len(acts))
		}
	}
	n := uint64(len(devs))
	b.check(st.Uploads == n && st.Reports == n && st.RecordRows == rows,
		"%s: server counted %d uploads, %d reports, %d record rows; devices sent %d, %d, %d",
		what, st.Uploads, st.Reports, st.RecordRows, n, n, rows)
	b.check(st.Duplicates == 0 && st.Dropped == 0, "%s: %d duplicates, %d dropped", what, st.Duplicates, st.Dropped)
	b.check(bytes.Equal(s.Model(), want), "%s: server model differs from the in-process Learner fold", what)
}

func runFleetIngest(b *bench) error {
	devs := make([]device, closedDevices)
	for i := range devs {
		devs[i] = genDevice(b.seed, i)
	}
	openDevs := devs[:openDevices]
	want, wantOpen := fold(b.seed, devs), fold(b.seed, openDevs)

	// Warm-up: one pass of the first warmDevices devices at 1 connection
	// through a throwaway server, long enough (about 1 s) that one slow
	// moment does not set the set-up time.
	s, err := server(b, "")
	if err != nil {
		return err
	}
	cl, _, _, _ := drive(b, s, devs[:warmDevices], 1, 0, nil, 0)
	cl.Close()
	if err := s.Shutdown(); err != nil {
		return fmt.Errorf("warm-up shutdown: %w", err)
	}
	b.setupDone()
	b.note("devices: %d per closed pass, %d per open pass at %d/s", closedDevices, openDevices, openRate)

	err = b.loop(func(round int, tr *tracer) error {
		root := tr.start("round", 0)
		defer tr.end(root)
		var stats [2]passStats
		for k := 0; k < 2; k++ {
			w := (k + round) % 2
			width, name := b.nproc, "fleet.closed"
			if w == 1 {
				width, name = 1, "fleet.closed.1w"
			}
			s, err := server(b, "")
			if err != nil {
				return err
			}
			ps := tr.start(name, root)
			var cl *fleet.Client
			var failed int
			stats[w] = timed(func() { cl, _, _, failed = drive(b, s, devs, width, 0, tr, ps) })
			tr.end(ps)
			count(b, len(devs), failed)
			verify(b, s, devs, want, name)
			if w == 0 && tr != nil {
				for _, op := range []string{"upload", "report", "query"} {
					b.add("fleet."+op+"_rt_us", float64(cl.Latency(op).Mean())/1e3)
				}
				st := s.Stats()
				b.add("fleet.backpressured", float64(st.Backpressured))
				b.add("fleet.retries", float64(cl.Retries()))
				b.add("fleet.accept_ratio", float64(st.Uploads)/float64(st.Uploads+cl.Retries()))
			}
			cl.Close()
			if err := s.Shutdown(); err != nil {
				return fmt.Errorf("%s shutdown: %w", name, err)
			}
		}
		b.addPass(tr, stats[0], stats[1])

		// Open loop at a fixed offered rate well under capacity.
		s, err := server(b, "")
		if err != nil {
			return err
		}
		ps := tr.start("fleet.open", root)
		cl, lat, lag, failed := drive(b, s, openDevs, b.nproc, openRate, tr, ps)
		tr.end(ps)
		cl.Close()
		count(b, len(openDevs), failed)
		if tr != nil {
			b.add("fleet.open_lag_ms", mean(lag))
		} else {
			b.upload = append(b.upload, lat...)
		}
		verify(b, s, openDevs, wantOpen, "fleet.open")
		if err := s.Shutdown(); err != nil {
			return fmt.Errorf("open-loop shutdown: %w", err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	p50, p99 := percentile(b.upload, 50), percentile(b.upload, 99)
	b.note("open-loop upload latency: p50 %.3f ms, p99 %.3f ms over %d samples", p50, p99, len(b.upload))
	if b.tr != nil {
		b.layer["fleet.upload_p50_ms"], b.layer["fleet.upload_p99_ms"] = p50, p99
		b.layer["fleet.upload_samples"] = float64(len(b.upload))
		if err := journalLayer(b, devs[:journalDevices]); err != nil {
			return err
		}
		b.setLayer("fleet.upload_rt_us", "fleet.report_rt_us", "fleet.query_rt_us", "fleet.open_lag_ms",
			"fleet.backpressured", "fleet.retries", "fleet.accept_ratio", "fleet.journal_syncs",
			"fleet.records_per_sync", "fleet.compactions", "fleet.replayed_records", "fleet.recovery_s")
		b.finishRuntimeLayers()
		runProbes(b)
	}
	return nil
}

// count records one pass's device exchanges as operations.
func count(b *bench, devices, failed int) {
	for i := 0; i < devices; i++ {
		b.op(i >= failed)
	}
}

// journalLayer measures the durable journal in the traced run, from both
// sides: one closed-loop pass at nproc connections in which every ack
// waits on a group-commit fsync, then Kill and a timed restart that
// replays the journal. Its fsync timing proved too unsteady on a shared
// disk for an end-to-end workload (README.md), so it reports per-layer
// metrics only.
func journalLayer(b *bench, devs []device) error {
	dir := filepath.Join(outDir, fmt.Sprintf("journal-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	want := fold(b.seed, devs)
	s, err := server(b, dir)
	if err != nil {
		return err
	}
	id := b.tr.start("fleet.journal", 0)
	cl, _, _, failed := drive(b, s, devs, b.nproc, 0, b.tr, id)
	b.tr.end(id)
	cl.Close()
	count(b, len(devs), failed)
	verify(b, s, devs, want, "fleet.journal")
	st := s.Stats()
	b.add("fleet.journal_syncs", float64(st.JournalSyncs))
	if st.JournalSyncs > 0 {
		b.add("fleet.records_per_sync", float64(st.JournalRecords)/float64(st.JournalSyncs))
	}
	b.add("fleet.compactions", float64(st.Compactions))
	return recoverJournal(b, s, dir, want)
}

// recoverJournal kills a durable server without its drain-time compaction,
// restarts a server on the same journal and times how long until it
// serves again; the replayed model must equal the one acked before.
func recoverJournal(b *bench, s *fleet.Server, dir string, want []byte) error {
	acked := s.Model()
	s.Kill()
	id := b.tr.start("fleet.recover", 0)
	start := time.Now()
	r, err := server(b, dir)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	cl := fleet.NewClient(fleet.ClientConfig{Addr: r.Addr().String(), Conns: 1, Seed: b.seed})
	_, err = cl.FetchStats()
	took := time.Since(start)
	b.tr.end(id)
	cl.Close()
	if err != nil {
		return fmt.Errorf("restarted server does not serve: %w", err)
	}
	b.add("fleet.recovery_s", took.Seconds())
	st := r.Stats()
	b.add("fleet.replayed_records", float64(st.ReplayedRecords))
	b.check(bytes.Equal(r.Model(), acked), "replayed model differs from the model acked before Kill")
	b.check(bytes.Equal(acked, want), "model acked before Kill differs from the in-process Learner fold")
	if err := r.Shutdown(); err != nil {
		return fmt.Errorf("restarted shutdown: %w", err)
	}
	return nil
}
