package main

import (
	"fmt"
	"strings"
	"time"

	seed "github.com/seed5g/seed"
	"github.com/seed5g/seed/internal/core"
	"github.com/seed5g/seed/internal/policy"
	"github.com/seed5g/seed/internal/runner"
	"github.com/seed5g/seed/internal/workload"
)

// searchCells is how many eligible corpus cells the search scores. A
// corpus of workload.DefaultSpec() holds 1344 to 1487 of them over seeds
// 1-40; a fixed count keeps the work the same whatever the seed.
const searchCells = 1280

// warmCells is how many fixed-corpus cells the set-up's warm-up search
// scores.
const warmCells = 256

func runPolicySearch(b *bench) error {
	sp := workload.DefaultSpec()
	id := b.tr.start("workload.compile", 0)
	cells, err := policy.Corpus(sp, b.seed, searchCells)
	b.tr.end(id)
	if err != nil {
		return fmt.Errorf("compile corpus: %w", err)
	}
	if len(cells) < searchCells {
		return fmt.Errorf("corpus has %d eligible cells, want %d", len(cells), searchCells)
	}
	if b.tr != nil {
		b.layer["workload.compile_s"] = b.tr.dur(id)
	}
	fixed, err := policy.Corpus(sp, fixedSeed, searchCells)
	if err != nil {
		return fmt.Errorf("compile fixed corpus: %w", err)
	}
	wide, one := runner.New(b.nproc), runner.New(1)
	// Warm-up: one search at 1 worker over the first warmCells cells of the
	// fixed corpus. It is the same work whatever the seed, and long enough
	// (about 1.5 s) that one slow moment does not set the set-up time.
	policy.Search(one, sp, fixed[:warmCells], policy.DefaultSearchConfig(fixedSeed))
	b.setupDone()

	err = b.loop(func(round int, tr *tracer) error {
		root := tr.start("round", 0)
		defer tr.end(root)
		var res [2]policy.SearchResult
		var stats [2]passStats
		for k := 0; k < 2; k++ {
			w := (k + round) % 2 // alternate which width runs first
			pool := wide
			name := "policy.search"
			if w == 1 {
				pool, name = one, "policy.search.1w"
			}
			ps := tr.start(name, root)
			stage := tr.start("policy.grid", ps)
			// The mutation seed is fixed: the corpus carries the seed.
			cfg := policy.DefaultSearchConfig(fixedSeed)
			cfg.Progress = func(line string) {
				// Search reports the end of the grid and of each refinement
				// round; each ends one stage span and, but the last, opens
				// the next.
				var r int
				if strings.HasPrefix(line, "grid best") {
					tr.end(stage)
					stage = tr.start("policy.refine", ps)
				} else if _, err := fmt.Sscanf(line, "round %d", &r); err == nil {
					tr.end(stage)
					if r < cfg.Rounds {
						stage = tr.start("policy.refine", ps)
					}
				}
			}
			stats[w] = timed(func() { res[w] = policy.Search(pool, sp, cells, cfg) })
			tr.end(ps)
			if tr != nil {
				key := "policy.evaluate_s"
				if w == 1 {
					key = "policy.evaluate.1w_s"
				}
				b.add(key, tr.dur(ps)/float64(res[w].Evaluated))
			}
		}
		b.addPass(tr, stats[0], stats[1])
		// One operation for the two searches, failed unless every output
		// check on them holds.
		b.op(checkSearch(b, res[0], res[1]))

		// Float-merge determinism: Evaluate's Score at 1 and nproc workers,
		// bit for bit, on the fixed corpus. Counted as one operation.
		s1, _ := policy.Evaluate(one, sp, fixed, policy.Paper(), core.TraceOff)
		sN, _ := policy.Evaluate(wide, sp, fixed, policy.Paper(), core.TraceOff)
		b.op(s1 == sN)
		if s1 != sN && b.nproc > 1 {
			b.note("policy.Evaluate Score differs between 1 and %d workers (float sums folded through runner.Collect)", b.nproc)
		}

		// Reference pricing and per-cell latency: every cell run once under
		// the paper policy in index order, each outcome priced with
		// policy.Composite, must reproduce Evaluate's paper composite.
		// Counted as one operation.
		pol := policy.Paper()
		sum := 0.0
		var mgmt, mob []float64
		for _, c := range cells {
			inst := &seed.Instrument{Applet: pol.Apply, LearnerLR: pol.LR}
			start := time.Now()
			o := seed.RunWorkloadCell(sp, c, cellMode(c.Mode), inst)
			d := time.Since(start)
			if workload.MobilityScenario(c.Scenario) {
				mob = append(mob, float64(d)/1e3)
			} else {
				mgmt = append(mgmt, float64(d)/1e3)
			}
			sum += policy.Composite(o)
		}
		ref := sum / float64(len(cells))
		got := res[1].Paper.Score.Composite
		b.op(b.check(abs(ref-got) <= 1e-9*abs(got), "paper composite recomputed %v, Evaluate %v", ref, got))
		if tr != nil {
			b.add("cell.mgmt_us", mean(mgmt))
			b.add("cell.mobility_us", mean(mob))
			sc, counts := policy.Evaluate(wide, sp, cells, pol, core.TraceDecisions)
			total := 0
			for _, n := range counts {
				total += n
			}
			b.add("core.decisions", float64(total))
			b.add("core.actions", float64(sc.TotalActions))
		}
		return nil
	})
	if err != nil {
		return err
	}
	if b.tr != nil {
		b.setLayer("policy.evaluate_s", "policy.evaluate.1w_s", "cell.mgmt_us", "cell.mobility_us",
			"core.decisions", "core.actions")
		b.finishRuntimeLayers()
		runProbes(b)
	}
	return nil
}

// checkSearch holds a search result at nproc (wide) and at one worker to
// the properties the optimizer promises, and reports whether all held.
func checkSearch(b *bench, wide, one policy.SearchResult) bool {
	ok := true
	for _, r := range []policy.SearchResult{wide, one} {
		p := r.Paper.Score
		ok = b.check(p.Cells > 0 && p.Recovered == p.Cells, "paper policy recovered %d of %d cells", p.Recovered, p.Cells) && ok
		ok = b.check(r.Best.Score.Composite <= p.Composite, "best composite %v above paper %v", r.Best.Score.Composite, p.Composite) && ok
	}
	ok = b.check(wide.Evaluated == one.Evaluated, "search evaluated %d candidates at %d workers, %d at 1", wide.Evaluated, b.nproc, one.Evaluated) && ok
	for _, c := range []struct {
		name string
		w, o policy.Score
	}{{"paper", wide.Paper.Score, one.Paper.Score}, {"best", wide.Best.Score, one.Best.Score}} {
		ok = b.check(intTotals(c.w) == intTotals(c.o), "%s integer totals differ between %d workers %v and 1 %v",
			c.name, b.nproc, intTotals(c.w), intTotals(c.o)) && ok
	}
	return ok
}

// intTotals are a Score's integer fields, which no float merge touches.
func intTotals(s policy.Score) [6]int {
	return [6]int{s.Cells, s.Recovered, s.TotalActions, s.TotalReboots, s.TotalNotices, s.TotalDecisions}
}

// cellMode maps a corpus population's mode to the testbed mode, as
// policy.Evaluate does.
func cellMode(m string) seed.Mode {
	switch m {
	case "seed-r":
		return seed.ModeSEEDR
	case "seed-u":
		return seed.ModeSEEDU
	}
	return seed.ModeLegacy
}
