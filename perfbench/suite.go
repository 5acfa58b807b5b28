package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"queuemachine/internal/compile"
	"queuemachine/internal/experiments"
	"queuemachine/internal/sim"
	"queuemachine/internal/workloads"
)

// baselineFile holds the exact simulated-cycle count of every suite entry.
const baselineFile = "BENCH_baseline.json"

// suiteProgram is one compiled program of the suite; several entries
// simulate it at different machine sizes.
type suiteProgram struct {
	wl   workloads.Workload
	opts compile.Options
	art  *compile.Artifact
}

// suiteEntry is one exact-baseline simulation.
type suiteEntry struct {
	name     string // key in BENCH_baseline.json
	prog     *suiteProgram
	pes      int
	baseline int64
}

// suiteLayout lists the exact-baseline simulations under the names the
// repository's Go benchmarks give them: the Chapter 6 figures at 1–8
// PEs, the two binsum programs at 4, the second-generation suite at
// 1/2/4/8, and the Table 6.6 compiler cases at 4.
func suiteLayout() ([]*suiteProgram, []suiteEntry) {
	var progs []*suiteProgram
	var entries []suiteEntry
	add := func(family string, wl workloads.Workload, opts compile.Options, sub func(pes int) string, pes []int) {
		p := &suiteProgram{wl: wl, opts: opts}
		progs = append(progs, p)
		for _, n := range pes {
			entries = append(entries, suiteEntry{name: family + "/" + sub(n), prog: p, pes: n})
		}
	}
	byPEs := func(n int) string { return fmt.Sprintf("pes-%d", n) }
	named := func(name string) func(int) string { return func(int) string { return name } }
	pes := experiments.PECounts
	add("BenchmarkFig68Matmul", workloads.MatMul(8), compile.Options{}, byPEs, pes)
	add("BenchmarkFig610FFT", workloads.FFT(6), compile.Options{}, byPEs, pes)
	add("BenchmarkFig611Cholesky", workloads.Cholesky(8), compile.Options{}, byPEs, pes)
	add("BenchmarkFig612Congruence", workloads.Congruence(8), compile.Options{}, byPEs, pes)
	for _, wl := range []workloads.Workload{workloads.BinaryRecursiveSum(32), workloads.IterativeSum(32)} {
		add("BenchmarkFig69", wl, compile.Options{}, named(wl.Name), []int{4})
	}
	gen2 := []int{1, 2, 4, 8}
	add("BenchmarkGen2Bitonic", workloads.Bitonic(4), compile.Options{}, byPEs, gen2)
	add("BenchmarkGen2LU", workloads.LU(6), compile.Options{}, byPEs, gen2)
	add("BenchmarkGen2Stencil", workloads.Stencil(16, 4), compile.Options{}, byPEs, gen2)
	add("BenchmarkGen2Chain", workloads.Chain(24), compile.Options{}, byPEs, gen2)
	for _, c := range experiments.OptimizationCases() {
		// go test names sub-benchmarks with spaces turned into underscores.
		add("BenchmarkTable66", workloads.MatMul(6), c.Opts, named(strings.ReplaceAll(c.Name, " ", "_")), []int{4})
	}
	return progs, entries
}

// setupSuite loads the baselines and compiles every program once.
func setupSuite(ct *compileTimer) ([]*suiteProgram, []suiteEntry, error) {
	raw, err := os.ReadFile(baselineFile)
	if err != nil {
		return nil, nil, err
	}
	var doc struct {
		Benchmarks map[string]int64 `json:"benchmarks"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", baselineFile, err)
	}
	progs, entries := suiteLayout()
	if len(entries) != len(doc.Benchmarks) {
		return nil, nil, fmt.Errorf("%s has %d entries, the suite %d", baselineFile, len(doc.Benchmarks), len(entries))
	}
	for i := range entries {
		b, ok := doc.Benchmarks[entries[i].name]
		if !ok {
			return nil, nil, fmt.Errorf("%s has no entry %s", baselineFile, entries[i].name)
		}
		entries[i].baseline = b
	}
	for _, p := range progs {
		if p.art, err = ct.build(p.wl.Source, p.opts); err != nil {
			return nil, nil, fmt.Errorf("compile %s: %w", p.wl.Name, err)
		}
	}
	return progs, entries, nil
}

// suiteReps is how many times a run repeats set-up to report its median;
// minOps is the fewest simulations a run times, so that p99 has at least
// ten samples beyond it.
const (
	suiteReps = 5
	minOps    = 1000
)

// runSuite runs the 56 exact-baseline simulations back to back, pass
// after pass, for the timed phase.
func runSuite(o options) (*report, error) {
	rep := newReport()
	ct := &compileTimer{}
	yard := newYardstick()
	var progs []*suiteProgram
	entries, setupS, err := medianSetup(suiteReps, yard, func() ([]suiteEntry, error) {
		var es []suiteEntry
		var err error
		progs, es, err = setupSuite(ct)
		return es, err
	}, func([]suiteEntry) {})
	if err != nil {
		return nil, err
	}

	var prof *cpuProfile
	if o.trace {
		if prof, err = startCPUProfile(o.dir); err != nil {
			return nil, err
		}
	}
	params := sim.DefaultParams()
	perEntry := make([][]float64, len(entries)) // scaled seconds per call
	var lat []float64
	var first, host simTally
	runtime.GC()
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start).Seconds() < o.seconds || len(lat) < minOps; pass++ {
		tally := simTally{traced: o.trace}
		scale := yard.scale(yardRounds)
		for i, e := range entries {
			rep.Attempted++
			res, d, err := tally.run(e.prog.art, e.pes, params)
			perEntry[i] = append(perEntry[i], d.Seconds()*scale)
			lat = append(lat, ms(d)*scale)
			switch {
			case err != nil:
				rep.fail("%s: %v", e.name, err)
			case res.Cycles != e.baseline:
				rep.fail("%s: %d cycles, baseline %d", e.name, res.Cycles, e.baseline)
			default:
				if err := e.prog.wl.Check(e.prog.art, res.Data); err != nil {
					rep.fail("%s: %v", e.name, err)
				}
			}
		}
		if pass == 0 {
			first = tally
		}
		host.nanos += tally.nanos
		host.instrs += tally.instrs
		host.allocs += tally.allocs
	}

	if !o.trace {
		// A pass at every simulation's median time: a collection cycle or
		// a host hiccup landing on one call does not move it.
		var batch float64
		for _, secs := range perEntry {
			batch += median(secs)
		}
		rep.set("setup_s", setupS, "s")
		rep.set("batch_s", batch, "s")
		rep.set("max_rps", float64(len(entries))/batch, "1/s")
		rep.set("sim_minstr_s", float64(first.instrs)/batch/1e6, "Minstr/s")
		rep.set("sim_mcycles", float64(first.cycles)/1e6, "Mcycles")
		rep.set("p50_ms", quantile(lat, 0.50), "ms")
		rep.set("p99_ms", quantile(lat, 0.99), "ms")
		return rep, nil
	}
	shares, err := prof.stop()
	if err != nil {
		return nil, err
	}
	zeroLayers(rep)
	ct.report(rep)
	var words int
	for _, p := range progs {
		words += codeWords(p.art)
	}
	rep.set("compile.code_kwords", float64(words)/1000, "kwords")
	first.reportCounters(rep)
	host.reportHost(rep)
	shares.report(rep)
	rep.set("host.yardstick_us", yard.roundUS(), "us")
	return rep, nil
}
