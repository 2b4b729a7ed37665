package main

import (
	"bytes"
	"runtime"
	"time"

	seed "github.com/seed5g/seed"
	"github.com/seed5g/seed/internal/cause"
	"github.com/seed5g/seed/internal/core"
	"github.com/seed5g/seed/internal/crypto5g"
	"github.com/seed5g/seed/internal/fleet"
	"github.com/seed5g/seed/internal/nas"
	"github.com/seed5g/seed/internal/netemu"
	"github.com/seed5g/seed/internal/sched"
	"github.com/seed5g/seed/internal/sim"
)

// perLayer are the metrics a --trace 1 run reports. A layer a workload
// does not run reads 0 there (README.md says where each should move).
var perLayer = func() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, struct{ name, unit string }{n, unit})
		}
	}
	for _, e := range paperExperiments() {
		add("s", "exp."+e.name+"_s", "exp."+e.name+".1w_s")
	}
	add("s", "trace.generate_s", "workload.compile_s", "policy.evaluate_s", "policy.evaluate.1w_s")
	add("us", "cell.mgmt_us", "cell.mobility_us")
	add("count", "core.decisions", "core.actions")
	for _, p := range probes {
		add(p.unit, p.name+"_"+p.unit)
		add("count", p.name+"_allocs")
	}
	add("count", "sched.events")
	add("us", "fleet.upload_rt_us", "fleet.report_rt_us", "fleet.query_rt_us")
	add("ms", "fleet.open_lag_ms", "fleet.upload_p50_ms", "fleet.upload_p99_ms")
	add("count", "fleet.upload_samples")
	add("count", "fleet.backpressured", "fleet.retries")
	add("ratio", "fleet.accept_ratio")
	add("count", "fleet.journal_syncs")
	add("ratio", "fleet.records_per_sync")
	add("count", "fleet.compactions", "fleet.replayed_records")
	add("s", "fleet.recovery_s")
	add("s", "runtime.gc_cpu_s")
	add("count", "runtime.alloc_objects", "runtime.gc_cycles")
	add("s", "runtime.idle_cpu_s")
	add("us", "runtime.sched_wait_p99_us")
	add("s", "trace.overhead_s", "setup_wall_s")
	for _, m := range timings {
		add(m.unit, m.name)
	}
	return out
}()

// layerProbe is a fixed loop of calls into one layer, reported as time
// and heap allocations per call.
type layerProbe struct {
	name, unit string
	n          int
	// setup returns the call to time; its untimed part, when not nil, runs
	// before each timed call.
	setup func() (untimed, call func(i int))
}

var unitScale = map[string]float64{"ns": 1, "us": 1e3}

// bareDevice boots one SEED-R device to connected steady state.
func bareDevice(tb *seed.Testbed) *seed.Device {
	d := tb.NewDevice(seed.ModeSEEDR)
	d.Start()
	tb.RunUntil(d.Connected, time.Minute)
	return d
}

var probeProto = seed.NewProto(bareDevice)

var probeKey = []byte("perfbench-key-16")

var probes = []layerProbe{
	{"cell.fresh_boot", "us", 200, func() (func(int), func(int)) {
		return nil, func(i int) { probeProto.Fresh(int64(i + 1)) }
	}},
	{"cell.clone", "us", 2000, func() (func(int), func(int)) {
		return nil, func(i int) {
			_, _, put := probeProto.Get(int64(i + 1))
			put()
		}
	}},
	{"sched.reseed", "us", 2000, func() (func(int), func(int)) {
		tb, _ := probeProto.Fresh(1)
		return nil, func(i int) { tb.Reseed(int64(i)) }
	}},
	{"snap.restore", "us", 2000, func() (func(int), func(int)) {
		tb, _ := probeProto.Fresh(1)
		s := tb.Snapshot()
		return func(i int) { tb.Reseed(int64(i)) }, func(int) { s.Restore() }
	}},
	{"sched.event", "ns", 20, nil}, // measured by eventProbe
	{"netemu.send", "ns", 100000, func() (func(int), func(int)) {
		k := sched.New(1)
		l := netemu.NewLink(k, "probe", time.Millisecond, func(any) {})
		msg := &struct{ n int }{}
		return nil, func(int) {
			l.Send(msg)
			k.Step()
		}
	}},
	{"sim.apdu_parse", "ns", 200000, func() (func(int), func(int)) {
		raw := sim.Command{CLA: 0x80, INS: 0xC2, Data: probeKey}.Bytes()
		return nil, func(int) { _, _ = sim.ParseCommand(raw) }
	}},
	{"nas.marshal", "ns", 100000, func() (func(int), func(int)) {
		msg := nasProbeMsg()
		return nil, func(int) { _ = nas.Marshal(msg) }
	}},
	{"nas.unmarshal", "ns", 100000, func() (func(int), func(int)) {
		raw := nas.Marshal(nasProbeMsg())
		return nil, func(int) { _, _ = nas.Unmarshal(raw) }
	}},
	{"nas.protect", "ns", 100000, func() (func(int), func(int)) {
		var ik [16]byte
		copy(ik[:], probeKey)
		sc := nas.NewSecurityContext(ik)
		plain := nas.Marshal(nasProbeMsg())
		return nil, func(int) { _ = sc.Protect(crypto5g.Uplink, plain) }
	}},
	{"crypto5g.eia2", "ns", 200000, func() (func(int), func(int)) {
		k, _ := crypto5g.NewEIA2Key(probeKey)
		msg := bytes.Repeat(probeKey, 4)
		return nil, func(i int) { k.MAC(uint32(i), 1, crypto5g.Uplink, msg) }
	}},
	{"crypto5g.milenage", "ns", 100000, func() (func(int), func(int)) {
		m, _ := crypto5g.NewMilenage(probeKey, probeKey)
		var r [16]byte
		return nil, func(i int) {
			r[0] = byte(i)
			m.F2345(r)
		}
	}},
	{"crypto5g.seal", "ns", 100000, func() (func(int), func(int)) {
		e, _ := crypto5g.NewEnvelope(probeKey, probeKey, 5)
		return nil, func(int) { _, _ = e.Seal(crypto5g.Uplink, probeKey) }
	}},
	{"crypto5g.open", "ns", 100000, func() (func(int), func(int)) {
		tx, _ := crypto5g.NewEnvelope(probeKey, probeKey, 5)
		rx, _ := crypto5g.NewEnvelope(probeKey, probeKey, 5)
		var sealed []byte
		return func(int) { sealed, _ = tx.Seal(crypto5g.Uplink, probeKey) },
			func(int) { _, _ = rx.Open(crypto5g.Uplink, sealed) }
	}},
	{"fleet.frame", "ns", 100000, func() (func(int), func(int)) {
		f := fleet.Frame{Type: 1, Payload: bytes.Repeat(probeKey, 8)}
		var buf []byte
		r := bytes.NewReader(nil)
		return nil, func(int) {
			buf = fleet.AppendFrame(buf[:0], f)
			r.Reset(buf)
			_, _ = fleet.ReadFrame(r, fleet.DefaultMaxFrame)
		}
	}},
	{"fleet.seal", "us", 20000, func() (func(int), func(int)) {
		dev := fleet.NewSimDevice(fleet.DefaultMasterKey, "310170000000001")
		recs := map[cause.Cause]map[core.ActionID]int{
			cause.MM(150): {core.ActionA1: 2, core.ActionB1: 1},
			cause.SM(151): {core.ActionA3: 3},
		}
		return nil, func(int) { _, _ = dev.SealRecords(core.MarshalRecords(recs)) }
	}},
}

// nasProbeMsg is a PDU session accept with DNS servers and a two-filter
// TFT, the largest message a cell's session setup exchanges.
func nasProbeMsg() *nas.PDUSessionEstablishmentAccept {
	return &nas.PDUSessionEstablishmentAccept{
		SMHeader:    nas.SMHeader{PDUSessionID: 5, PTI: 17},
		SessionType: nas.SessionIPv4,
		Address:     nas.Addr{10, 45, 0, 2},
		DNSServers:  []nas.Addr{{10, 45, 0, 53}, {8, 8, 8, 8}},
		QoS:         nas.QoS{FiveQI: 9, UplinkKbps: 100000, DownKbps: 500000},
		TFT: nas.TFT{Filters: []nas.PacketFilter{
			{Direction: nas.FilterBidirectional, Protocol: nas.ProtoTCP, PortLow: 1, PortHigh: 65535},
			{Direction: nas.FilterUplink, Protocol: nas.ProtoUDP, RemoteAddr: nas.Addr{1, 2, 3, 4}, PortLow: 5000, PortHigh: 5100},
		}},
		DNN: "internet",
	}
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// runProbes runs every layer probe once, inside a "probes" span.
func runProbes(b *bench) {
	root := b.tr.start("probes", 0)
	defer b.tr.end(root)
	for _, p := range probes {
		id := b.tr.start("probe."+p.name, root)
		var per, allocs float64
		if p.setup == nil {
			per, allocs = eventProbe(b, p.n)
		} else {
			untimed, call := p.setup()
			per, allocs = timeCalls(p.n, untimed, call)
		}
		b.tr.end(id)
		b.layer[p.name+"_"+p.unit] = per / unitScale[p.unit]
		b.layer[p.name+"_allocs"] = allocs
	}
}

// timeCalls returns the mean ns and heap allocations per call over n
// calls, after one warm-up call. untimed, when set, runs before each call
// outside the clock, and its allocations are measured apart and removed.
func timeCalls(n int, untimed, call func(i int)) (ns, allocs float64) {
	if untimed != nil {
		untimed(0)
	}
	call(0)
	runtime.GC()
	var extra uint64
	if untimed != nil {
		a := mallocs()
		for i := 1; i <= n; i++ {
			untimed(i)
		}
		extra = mallocs() - a
	}
	var total time.Duration
	a := mallocs()
	if untimed == nil {
		start := time.Now()
		for i := 1; i <= n; i++ {
			call(i)
		}
		total = time.Since(start)
	} else {
		for i := 1; i <= n; i++ {
			untimed(i)
			start := time.Now()
			call(i)
			total += time.Since(start)
		}
	}
	return float64(total) / float64(n), float64(mallocs()-a-extra) / float64(n)
}

// eventProbe steps cloned cells through a control-plane failure with the
// kernel's own Step loop: ns and allocations per event, and the event
// count of the first cell (a fixed number for a fixed program).
func eventProbe(b *bench, cells int) (ns, allocs float64) {
	var total time.Duration
	events := 0
	a := mallocs()
	for c := 0; c < cells; c++ {
		tb, d, put := probeProto.Get(int64(c + 1))
		tb.InjectControlFailure(d, uint8(cause.MMIllegalUE), seed.InjectOpts{Count: -1, HealAfter: 30 * time.Second})
		tb.SimulateMobility(d)
		k := tb.Kernel()
		horizon := k.Now() + 10*time.Minute
		n := 0
		start := time.Now()
		for k.Now() < horizon && k.Step() {
			n++
		}
		total += time.Since(start)
		put()
		if c == 0 {
			b.layer["sched.events"] = float64(n)
		}
		events += n
	}
	if events == 0 {
		return 0, 0
	}
	return float64(total) / float64(events), float64(mallocs()-a) / float64(events)
}
