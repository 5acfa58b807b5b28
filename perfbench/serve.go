package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"runtime"
	"time"

	"queuemachine/internal/compile"
	"queuemachine/internal/occamgen"
	"queuemachine/internal/sim"
	"queuemachine/internal/workloads"
	"queuemachine/internal/xtrace"
)

// Offered rates and set-up repetitions of the serving workloads. Each
// rate keeps the fleet well below saturation on a 2-core host, so p99
// reflects queueing at a steady utilization rather than a collapse, while
// a 20-second phase still leaves more than ten requests beyond p99.
const (
	hotRate     = 100.0 // req/s
	freshRate   = 60.0  // req/s
	zipfS       = 1.1
	serveReps   = 3
	hotPasses   = 10 // closed-loop passes, each hotCopies × the corpus
	hotCopies   = 8
	freshPasses = 8 // closed-loop passes, each of freshPass new programs
	freshPass   = 60
	yardEvery   = 50 * time.Millisecond // yardstick interval in the open loop
)

// ref is what a direct sim.Run of a program produced.
type ref struct{ cycles, instrs int64 }

// hotCorpus is the small chapter6+gen2 program mix.
func hotCorpus() []workloads.Workload {
	var wls []workloads.Workload
	for n := 2; n <= 4; n++ {
		wls = append(wls, workloads.MatMul(n))
	}
	for logN := 2; logN <= 3; logN++ {
		wls = append(wls, workloads.FFT(logN))
	}
	for n := 2; n <= 4; n++ {
		wls = append(wls, workloads.Cholesky(n))
	}
	for n := 2; n <= 5; n++ {
		wls = append(wls, workloads.Congruence(n))
	}
	for _, n := range []int{8, 16, 32} {
		wls = append(wls, workloads.BinaryRecursiveSum(n), workloads.IterativeSum(n))
	}
	for logN := 2; logN <= 3; logN++ {
		wls = append(wls, workloads.Bitonic(logN))
	}
	for n := 2; n <= 4; n++ {
		wls = append(wls, workloads.LU(n))
	}
	return append(wls, workloads.Stencil(6, 2), workloads.Chain(12))
}

// direct compiles and simulates src the way a replica does, timing the
// compiler layers in ct and the simulator in tally.
func direct(ct *compileTimer, tally *simTally, src string) (ref, *compile.Artifact, error) {
	art, err := ct.build(src, compile.Options{})
	if err != nil {
		return ref{}, nil, err
	}
	res, _, err := tally.run(art, servePEs, sim.DefaultParams())
	if err != nil {
		return ref{}, nil, err
	}
	return ref{res.Cycles, res.Instructions}, art, nil
}

// serveRun is one serving workload: a fleet, its programs, and how to
// obtain the direct-simulation reference for each.
type serveRun struct {
	o      options
	fl     *fleet
	hc     *http.Client
	bodies [][]byte
	// open is the open-loop schedule; passes the closed-loop batches.
	open   []shot
	passes [][]int
	// refOf returns a program's reference, computing it on first use.
	refOf func(prog int) (ref, error)
	ct    *compileTimer
	tally *simTally
	words int // object words of every directly compiled program
	yard  *yardstick
}

// runServeHot serves the warmed corpus under a Zipf mix: nearly every
// request is an artifact-cache hit followed by a small simulation.
func runServeHot(o options) (*report, error) {
	corpus := hotCorpus()
	rng := rand.New(rand.NewPCG(o.seed, 1))
	r := &serveRun{o: o, hc: newClient(), yard: newYardstick()}
	at := arrivals(rng, hotRate, o.phase())
	for i, prog := range zipfMix(rng, len(at), len(corpus), zipfS) {
		r.open = append(r.open, shot{prog: prog, at: at[i]})
	}
	// Every closed-loop pass sends the corpus hotCopies times in corpus
	// order: the same batch on every seed, so the pairing of concurrent
	// requests onto replicas does not vary from run to run.
	var batch []int
	for c := 0; c < hotCopies; c++ {
		for prog := range corpus {
			batch = append(batch, prog)
		}
	}
	for p := 0; p < hotPasses && !o.trace; p++ {
		r.passes = append(r.passes, batch)
	}
	refs := make([]ref, len(corpus))
	r.refOf = func(prog int) (ref, error) { return refs[prog], nil }
	r.ct = &compileTimer{}
	var err error
	var setupS float64
	r.fl, setupS, err = medianSetup(serveReps, r.yard, func() (*fleet, error) {
		r.tally, r.words = &simTally{traced: o.trace}, 0
		r.bodies = make([][]byte, len(corpus))
		for i, wl := range corpus {
			rf, art, err := direct(r.ct, r.tally, wl.Source)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", wl.Name, err)
			}
			refs[i], r.bodies[i] = rf, runBody(wl.Source)
			r.words += codeWords(art)
		}
		fl, err := startFleet(o.dir, len(r.open)+len(corpus))
		if err != nil {
			return nil, err
		}
		// Warm every program into its owner's memory and disk cache.
		for i := range corpus {
			out := post(r.hc, fl.gate, r.bodies[i], "")
			if !out.ok() || out.cycles != refs[i].cycles {
				fl.stop()
				return nil, fmt.Errorf("warming %s: %v (cycles %d, want %d)", corpus[i].Name, out.err, out.cycles, refs[i].cycles)
			}
		}
		return fl, nil
	}, (*fleet).stop)
	if err != nil {
		return nil, err
	}
	defer r.fl.stop()
	return r.measure(setupS)
}

// runServeFresh sends a distinct, never-seen occamgen program with every
// request: each one misses, compiles, fills the LRU and writes a disk
// entry.
func runServeFresh(o options) (*report, error) {
	rng := rand.New(rand.NewPCG(o.seed, 2))
	r := &serveRun{o: o, hc: newClient(), yard: newYardstick()}
	// The open loop sends programs 0..n-1 in seeded order and the passes
	// the ones after: every seed serves the same programs, in its own order.
	at := arrivals(rng, freshRate, o.phase())
	for i, prog := range rng.Perm(len(at)) {
		r.open = append(r.open, shot{prog: prog, at: at[i]})
	}
	n := len(at)
	if !o.trace {
		for p := 0; p < freshPasses; p++ {
			batch := make([]int, freshPass)
			for i := range batch {
				batch[i] = n
				n++
			}
			r.passes = append(r.passes, batch)
		}
	}
	srcs := make([]string, n)
	r.ct, r.tally = &compileTimer{}, &simTally{traced: o.trace}
	r.refOf = func(prog int) (ref, error) {
		rf, art, err := direct(r.ct, r.tally, srcs[prog])
		if err == nil {
			r.words += codeWords(art)
		}
		return rf, err
	}
	var err error
	var setupS float64
	r.fl, setupS, err = medianSetup(serveReps, r.yard, func() (*fleet, error) {
		// Program i is the i-th distinct occamgen program, so no two
		// requests share a source.
		seen := map[string]bool{}
		next := int64(0)
		for i := range srcs {
			for {
				src := occamgen.GenerateSeed(next, occamgen.DefaultConfig())
				next++
				if !seen[src] {
					seen[src], srcs[i] = true, src
					break
				}
			}
		}
		r.bodies = make([][]byte, n)
		for i, src := range srcs {
			r.bodies[i] = runBody(src)
		}
		return startFleet(o.dir, len(r.open))
	}, (*fleet).stop)
	if err != nil {
		return nil, err
	}
	defer r.fl.stop()
	return r.measure(setupS)
}

// check verifies every outcome against its program's direct simulation
// and returns which ones failed.
func (r *serveRun) check(rep *report, outs []outcome) ([]bool, error) {
	bad := make([]bool, len(outs))
	for i := range outs {
		o := &outs[i]
		rep.Attempted++
		if !o.ok() {
			bad[i] = true
			rep.fail("program %d: %v", o.prog, o.err)
			continue
		}
		want, err := r.refOf(o.prog)
		if err != nil {
			return nil, fmt.Errorf("direct run of program %d: %w", o.prog, err)
		}
		if o.cycles != want.cycles || o.instrs != want.instrs {
			bad[i] = true
			rep.fail("program %d: served %d cycles/%d instructions, direct run %d/%d",
				o.prog, o.cycles, o.instrs, want.cycles, want.instrs)
		}
	}
	return bad, nil
}

func (r *serveRun) measure(setupS float64) (*report, error) {
	if r.o.trace {
		return r.measureTraced()
	}
	rep := newReport()
	runtime.GC()
	before, err := r.fl.statsz(r.hc)
	if err != nil {
		return nil, err
	}
	stop := r.yard.during(yardEvery)
	open := openLoop(r.hc, r.fl.gate, r.bodies, r.open, false)
	samples := stop()
	scale := scaleDuring(samples)
	after, err := r.fl.statsz(r.hc)
	if err != nil {
		return nil, err
	}
	// The closed loop is summed over its passes rather than taking the
	// median pass: a pass holds about one collection cycle of the
	// replicas' heap, and whether it lands in a pass or the next would
	// make the median jump between two values.
	var closedSecs float64
	var requests int
	var passes [][]outcome
	stop = r.yard.during(yardEvery)
	for _, batch := range r.passes {
		runtime.GC()
		outs, d := closedLoop(r.hc, r.fl.gate, r.bodies, batch)
		closedSecs += d.Seconds()
		requests += len(batch)
		passes = append(passes, outs)
	}
	closedSecs *= scaleDuring(stop())

	bad, err := r.check(rep, open)
	if err != nil {
		return nil, err
	}
	lat := latencies(open, bad)
	for i := range lat {
		lat[i] *= scaleNear(samples, open[i].due, time.Second)
	}
	var cycles int64
	for _, o := range open {
		cycles += o.cycles
	}
	for _, outs := range passes {
		if _, err := r.check(rep, outs); err != nil {
			return nil, err
		}
	}
	d := after.sub(before)
	rep.set("setup_s", setupS, "s")
	rep.set("p50_ms", finite(quantile(lat, 0.50)), "ms")
	rep.set("p99_ms", finite(quantile(lat, 0.99)), "ms")
	rep.set("sim_minstr_s", float64(d.instrs)/d.simSeconds/1e6/scale, "Minstr/s")
	rep.set("batch_s", closedSecs/float64(len(r.passes)), "s")
	rep.set("max_rps", float64(requests)/closedSecs, "1/s")
	rep.set("sim_mcycles", float64(cycles)/1e6, "Mcycles")
	return rep, nil
}

// measureTraced runs the open-loop schedule under a CPU profile with a
// trace id on every other request. The traced half gives the span
// breakdown, the untraced half the p50 the tracing overhead is taken
// against, and /statsz deltas over the phase give the serving ratios.
func (r *serveRun) measureTraced() (*report, error) {
	rep := newReport()
	zeroLayers(rep)
	runtime.GC()
	before, err := r.fl.statsz(r.hc)
	if err != nil {
		return nil, err
	}
	prof, err := startCPUProfile(r.o.dir)
	if err != nil {
		return nil, err
	}
	outs := openLoop(r.hc, r.fl.gate, r.bodies, r.open, true)
	shares, err := prof.stop()
	if err != nil {
		return nil, err
	}
	after, err := r.fl.statsz(r.hc)
	if err != nil {
		return nil, err
	}
	bad, err := r.check(rep, outs)
	if err != nil {
		return nil, err
	}
	var traced []outcome
	var latPlain, latTraced []float64
	for i, l := range latencies(outs, bad) {
		if outs[i].trace == "" {
			latPlain = append(latPlain, l)
		} else {
			latTraced = append(latTraced, l)
			if !bad[i] {
				traced = append(traced, outs[i])
			}
		}
	}
	spans, err := r.spanBreakdown(traced)
	if err != nil {
		return nil, err
	}

	r.ct.report(rep)
	r.tally.reportHost(rep)
	r.tally.reportCounters(rep)
	rep.set("compile.code_kwords", float64(r.words)/1000, "kwords")
	shares.report(rep)
	spans.report(rep)
	d := after.sub(before)
	rep.set("service.cache_hit_ratio", ratio(d.hits, d.hits+d.misses), "ratio")
	rep.set("service.coalesced_share", ratio(d.coalesced, d.runs), "ratio")
	rep.set("service.disk_writes", float64(d.diskWrites), "count")
	rep.set("service.rejected", float64(d.rejected), "count")
	rep.set("xtrace.overhead_pct", 100*(quantile(latTraced, 0.5)/quantile(latPlain, 0.5)-1), "%")
	rep.set("gen.lag_p99_ms", lagP99(outs), "ms")
	rep.set("host.yardstick_us", r.yard.roundUS(), "us")
	if spans.coverage < minCoverage {
		// The spans, not the served results, fall short: report it without
		// failing an operation.
		fmt.Fprintf(os.Stderr, "perfbench: CHECK: stitched spans cover %.1f%% of client latency, below %.0f%%\n",
			spans.coverage, minCoverage)
	}
	return rep, nil
}

// minCoverage is the share of client latency the stitched trace must
// explain for the span breakdown to be trusted.
const minCoverage = 95.0

// spanStats is the per-request span breakdown of a traced phase.
type spanStats struct {
	requests int
	self     map[string]time.Duration // span name → summed self time
	relay    time.Duration
	coverage float64 // % of client wall time inside the gate's root span
}

// layerSpans are the replica spans reported as service.<layer>_ms.
var layerSpans = map[string]string{
	"queue.wait": "service.queue_wait_ms",
	"artifact":   "service.artifact_ms",
	"compile":    "service.compile_ms",
	"simulate":   "service.simulate_ms",
}

func (s *spanStats) report(rep *report) {
	per := func(d time.Duration) float64 { return ms(d) / float64(max(s.requests, 1)) }
	for span, name := range layerSpans {
		rep.set(name, per(s.self[span]), "ms")
	}
	rep.set("gate.relay_ms", per(s.relay), "ms")
	rep.set("span.coverage_pct", s.coverage, "%")
}

// spanBreakdown pulls every traced request's fleet-stitched trace from
// the gate and splits its time by span. A span's self time is its
// duration minus its children's.
func (r *serveRun) spanBreakdown(outs []outcome) (*spanStats, error) {
	st := &spanStats{self: map[string]time.Duration{}}
	var covered, client time.Duration
	for _, o := range outs {
		if !o.ok() {
			continue
		}
		resp, err := r.hc.Get(r.fl.gate + "/debugz/traces?id=" + string(o.trace))
		if err != nil {
			return nil, err
		}
		var doc struct {
			Spans []xtrace.Span `json:"spans"`
		}
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("trace %s: status %d: %v", o.trace, resp.StatusCode, err)
		}
		byID := map[xtrace.SpanID]xtrace.Span{}
		children := map[xtrace.SpanID]time.Duration{}
		for _, s := range doc.Spans {
			byID[s.ID] = s
			children[s.Parent] += us(s.DurUS)
		}
		st.requests++
		client += o.done.Sub(o.sent)
		for _, s := range doc.Spans {
			parent, local := byID[s.Parent]
			local = local && parent.Process == s.Process
			switch {
			case s.Name == "proxy" && s.Parent == "":
				covered += us(s.DurUS)
			case s.Name == "gate.attempt" && s.Error == "":
				// The replica's request root hangs off the attempt; the
				// rest of the attempt is the gate's relay.
				st.relay += us(s.DurUS) - children[s.ID]
			case local && layerSpans[s.Name] != "":
				st.self[s.Name] += max(0, us(s.DurUS)-children[s.ID])
			}
		}
	}
	st.coverage = 100 * float64(covered) / float64(max(client, 1))
	return st, nil
}

func us(v int64) time.Duration { return time.Duration(v) * time.Microsecond }
