package main

import (
	"fmt"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	seed "github.com/seed5g/seed"
)

// paperSamples is the replayed failure cases per class, as in
// `seedbench -samples 300`.
const paperSamples = 300

// fixedSeed generates the inputs of the float-merge determinism checks.
// They must not depend on --seed: the fault they count shows on every
// input, and a fixed input keeps its failure share exact across runs.
const fixedSeed = 1

// experiment is one §7 experiment of the `seedbench -exp all` suite.
type experiment struct {
	name string
	run  func(ds *seed.Dataset, s int64) (string, any)
}

func paperExperiments() []experiment {
	return []experiment{
		{"table1", func(ds *seed.Dataset, _ int64) (string, any) { return ds.RenderTable1(), nil }},
		{"figure2", func(ds *seed.Dataset, s int64) (string, any) {
			r := seed.ExperimentFigure2(ds, paperSamples, s)
			return r.Render(), r
		}},
		{"figure3", func(_ *seed.Dataset, s int64) (string, any) {
			return seed.ExperimentFigure3(max(8, paperSamples/10), s).Render(), nil
		}},
		{"table4", func(ds *seed.Dataset, s int64) (string, any) {
			r := seed.ExperimentTable4(ds, paperSamples, s)
			return r.Render(), r
		}},
		{"table5", func(_ *seed.Dataset, s int64) (string, any) { return seed.ExperimentTable5(3, s).Render(), nil }},
		{"figure11a", func(_ *seed.Dataset, s int64) (string, any) { return seed.ExperimentFigure11a(s).Render(), nil }},
		{"figure11b", func(_ *seed.Dataset, s int64) (string, any) { return seed.ExperimentFigure11b(s).Render(), nil }},
		{"figure12", func(_ *seed.Dataset, s int64) (string, any) { return seed.ExperimentFigure12(50, s).Render(), nil }},
		{"figure13", func(_ *seed.Dataset, s int64) (string, any) {
			r := seed.ExperimentFigure13(s)
			return r.Render(), r
		}},
		{"causes", func(ds *seed.Dataset, s int64) (string, any) {
			return seed.ExperimentCauses(ds, paperSamples, s).Render(), nil
		}},
		{"coverage", func(ds *seed.Dataset, s int64) (string, any) {
			return seed.ExperimentCoverage(ds, paperSamples, s).Render(), nil
		}},
		{"learning", func(_ *seed.Dataset, s int64) (string, any) {
			return seed.ExperimentLearning(6, 4, 50, s).Render(), nil
		}},
		{"mobility", func(_ *seed.Dataset, s int64) (string, any) {
			return seed.ExperimentMobility(max(8, paperSamples/10), s).Render(), nil
		}},
	}
}

// paperPass is one width's run of the whole suite.
type paperPass struct {
	text    map[string]string
	results map[string]any
	stats   passStats
}

func runPaperEval(b *bench) error {
	exps := paperExperiments()
	sp := b.tr.start("trace.generate", 0)
	ds := seed.GenerateDataset(b.seed)
	b.tr.end(sp)
	if b.tr != nil {
		b.layer["trace.generate_s"] = b.tr.dur(sp)
	}
	fixed := seed.GenerateDataset(fixedSeed)
	// Warm-up: the whole suite once at 1 worker on the fixed dataset boots
	// the lazily built prototype pools and grows the heap before anything
	// is timed. It is the same work whatever the seed, and long enough
	// (about 2 s) that one slow moment does not set the set-up time.
	seed.SetParallelism(1)
	for _, e := range exps {
		_, _ = e.run(fixed, fixedSeed)
	}
	b.setupDone()

	err := b.loop(func(round int, tr *tracer) error {
		root := tr.start("round", 0)
		defer tr.end(root)
		// Each experiment runs at both widths back to back, the order
		// alternating, so a burst of contention from outside the process
		// lands on one experiment's sample and the median over rounds
		// rejects it.
		one := paperPass{text: map[string]string{}, results: map[string]any{}}
		wide := paperPass{text: map[string]string{}, results: map[string]any{}}
		for i, e := range exps {
			for k := 0; k < 2; k++ {
				p, width, label := &wide, b.nproc, "exp.%s_s"
				if (i+round+k)%2 == 0 {
					p, width, label = &one, 1, "exp.%s.1w_s"
				}
				seed.SetParallelism(width)
				id := tr.start("exp."+e.name, root)
				st := timed(func() { p.text[e.name], p.results[e.name] = e.run(ds, b.seed) })
				tr.end(id)
				if tr != nil {
					b.add(fmt.Sprintf(label, e.name), tr.dur(id))
				} else {
					b.add(fmt.Sprintf("wall/"+label, e.name), st.wall.Seconds())
				}
				p.stats = p.stats.plus(st)
			}
		}
		b.addPass(tr, wide.stats, one.stats)
		// One operation per experiment: its runs at both widths, failed
		// unless every output check on them holds.
		for _, e := range exps {
			b.op(checkPaper(b, ds, e.name, one, wide))
		}

		// Float-merge determinism: the causes rows at 1 and nproc workers,
		// bit for bit, on the fixed dataset. Counted as one operation.
		seed.SetParallelism(1)
		c1 := seed.ExperimentCauses(fixed, paperSamples, fixedSeed)
		seed.SetParallelism(b.nproc)
		cN := seed.ExperimentCauses(fixed, paperSamples, fixedSeed)
		same := reflect.DeepEqual(c1.Rows, cN.Rows)
		b.op(same)
		if !same && b.nproc > 1 {
			b.note("ExperimentCauses rows differ between 1 and %d workers (float sums folded through runner.Collect)", b.nproc)
		}
		return nil
	})
	if err != nil {
		return err
	}
	// The suite's wall time at each width is the sum of its experiments'
	// median times.
	var sumWide, sumOne float64
	for _, e := range exps {
		sumWide += median(b.samples["wall/exp."+e.name+"_s"])
		sumOne += median(b.samples["wall/exp."+e.name+".1w_s"])
	}
	b.samples["wall_s"], b.samples["wall_1w_s"] = []float64{sumWide}, []float64{sumOne}
	if b.tr != nil {
		for _, e := range exps {
			b.setLayer("exp."+e.name+"_s", "exp."+e.name+".1w_s")
		}
		b.finishRuntimeLayers()
		runProbes(b)
	}
	return nil
}

// checkPaper holds one experiment's outputs in a round to claims
// recomputed from the inputs, not to recorded output, and reports whether
// every check held.
func checkPaper(b *bench, ds *seed.Dataset, name string, one, wide paperPass) bool {
	ok := b.check(one.text[name] == wide.text[name], "%s: rendered text differs between 1 and %d workers", name, b.nproc)
	switch name {
	case "table1":
		ok = checkTable1(b, ds, wide.text[name]) && ok
	case "table4":
		legacy := map[string]time.Duration{}
		rows := wide.results[name].(seed.Table4Result).Rows
		for _, r := range rows {
			if r.Mode == seed.ModeLegacy {
				legacy[r.Class] = r.Median
			}
		}
		for _, r := range rows {
			if r.Mode == seed.ModeLegacy || r.Class == "Data Delivery" {
				continue
			}
			ok = b.check(r.Median <= legacy[r.Class], "table4: %s %s median %v above legacy %v", r.Class, r.Mode, r.Median, legacy[r.Class]) && ok
			ok = b.check(r.Unrecov == 0, "table4: %s %s has %d unrecovered cases", r.Class, r.Mode, r.Unrecov) && ok
		}
	case "figure13":
		f13 := wide.results[name].(seed.Figure13Result)
		ok = b.check(len(f13.Rows) == 3, "figure13: %d rows, want 3", len(f13.Rows)) && ok
		for _, r := range f13.Rows {
			ok = b.check(r.SEEDR <= r.SEEDU && r.SEEDU <= r.Legacy, "figure13: %s not SEED-R %v <= SEED-U %v <= legacy %v", r.Level, r.SEEDR, r.SEEDU, r.Legacy) && ok
		}
	case "figure2":
		f2 := wide.results[name].(seed.Figure2Result)
		for _, c := range []struct {
			plane string
			pts   []seed.CDFPoint
			unrec float64
		}{{"control", f2.Control, f2.ControlUnrecovered}, {"data", f2.Data, f2.DataUnrecovered}} {
			ok = b.check(len(c.pts) > 0, "figure2: %s CDF is empty", c.plane) && ok
			for i := 1; i < len(c.pts); i++ {
				ok = b.check(c.pts[i].Seconds >= c.pts[i-1].Seconds && c.pts[i].Fraction >= c.pts[i-1].Fraction,
					"figure2: %s CDF not monotone at point %d", c.plane, i) && ok
			}
			if n := len(c.pts); n > 0 {
				end := c.pts[n-1].Fraction
				ok = b.check(abs(end-(1-c.unrec)) < 1e-9, "figure2: %s CDF ends at %v, want 1-%v", c.plane, end, c.unrec) && ok
			}
		}
	}
	return ok
}

var shareLine = regexp.MustCompile(`^\s*(.*?)\s+(\d+\.\d)%$`)

// checkTable1 recomputes Table 1's plane shares and its top-5 cause
// shares per plane from ds.Failures() and compares them with the
// rendered table's printed percentages.
func checkTable1(b *bench, ds *seed.Dataset, text string) bool {
	fails := ds.Failures()
	if len(fails) == 0 {
		return b.check(false, "table1: dataset has no failures")
	}
	type key struct {
		control bool
		code    uint8
	}
	counts := map[key]int{}
	names := map[key]string{}
	control := 0
	for _, f := range fails {
		k := key{f.ControlPlane, f.CauseCode}
		counts[k]++
		names[k] = f.CauseName
		if f.ControlPlane {
			control++
		}
	}
	total := float64(len(fails))
	want := []string{
		fmt.Sprintf("Control Plane (%.1f%%):", 100*float64(control)/total),
		fmt.Sprintf("Data Plane (%.1f%%):", 100*float64(len(fails)-control)/total),
	}
	ok := true
	for _, w := range want {
		ok = b.check(strings.Contains(text, w), "table1: rendered table lacks %q", w) && ok
	}
	printed := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if m := shareLine.FindStringSubmatch(line); m != nil {
			v, _ := strconv.ParseFloat(m[2], 64)
			printed[m[1]] = v
		}
	}
	for _, plane := range []bool{true, false} {
		var keys []key
		for k := range counts {
			if k.control == plane {
				keys = append(keys, k)
			}
		}
		sort.Slice(keys, func(i, j int) bool {
			if counts[keys[i]] != counts[keys[j]] {
				return counts[keys[i]] > counts[keys[j]]
			}
			return keys[i].code < keys[j].code
		})
		for _, k := range keys[:min(5, len(keys))] {
			share := 100 * float64(counts[k]) / total
			got, found := printed[names[k]]
			ok = b.check(found && abs(got-share) <= 0.05+1e-9, "table1: %s share printed %v, recomputed %.3f", names[k], got, share) && ok
		}
	}
	return ok
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
