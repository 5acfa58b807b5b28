package main

import (
	"runtime"
	"time"

	"queuemachine/internal/compile"
	"queuemachine/internal/occam"
	"queuemachine/internal/sim"
)

// perLayer lists every per-layer metric with its unit. Every traced run
// prints all of them; a layer the workload never enters reads 0.
var perLayer = []struct{ name, unit string }{
	{"occam.parse_ms", "ms"},
	{"compile.compile_ms", "ms"},
	{"compile.code_kwords", "kwords"},
	{"sim.ns_per_instr", "ns"},
	{"sim.allocs_per_kinstr", "count"},
	{"sim.host_pct", "%"},
	{"pe.host_pct", "%"},
	{"mcache.host_pct", "%"},
	{"ring.host_pct", "%"},
	{"kernel.host_pct", "%"},
	{"sched.host_pct", "%"},
	{"runtime.gc_pct", "%"},
	{"pe.utilization", "ratio"},
	{"pe.avg_queue_len", "words"},
	{"mcache.hit_ratio", "ratio"},
	{"mcache.evictions", "count"},
	{"ring.messages", "count"},
	{"ring.wait_kcycles", "kcycles"},
	{"kernel.contexts", "count"},
	{"kernel.switches", "count"},
	{"kernel.rolled_kregs", "kregs"},
	{"service.queue_wait_ms", "ms"},
	{"service.artifact_ms", "ms"},
	{"service.compile_ms", "ms"},
	{"service.simulate_ms", "ms"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.coalesced_share", "ratio"},
	{"service.disk_writes", "count"},
	{"service.rejected", "count"},
	{"gate.relay_ms", "ms"},
	{"xtrace.overhead_pct", "%"},
	{"span.coverage_pct", "%"},
	{"gen.lag_p99_ms", "ms"},
	{"host.yardstick_us", "us"},
}

// zeroLayers pre-sets every per-layer metric to 0 so a traced run prints
// the full list whatever its workload exercises.
func zeroLayers(rep *report) {
	for _, m := range perLayer {
		rep.set(m.name, 0, m.unit)
	}
}

// compileTimer times the two compiler entry points separately.
type compileTimer struct {
	parse, compile []float64 // ms per call
}

// build parses and compiles src, timing each layer.
func (t *compileTimer) build(src string, opts compile.Options) (*compile.Artifact, error) {
	start := time.Now()
	prog, err := occam.Parse(src)
	parsed := time.Now()
	if err != nil {
		return nil, err
	}
	art, err := compile.CompileProgram(prog, opts)
	t.parse = append(t.parse, ms(parsed.Sub(start)))
	t.compile = append(t.compile, ms(time.Since(parsed)))
	return art, err
}

func (t *compileTimer) report(rep *report) {
	rep.set("occam.parse_ms", median(t.parse), "ms")
	rep.set("compile.compile_ms", median(t.compile), "ms")
}

// simTally accumulates host cost and simulated-machine counters over a
// set of sim.Run calls.
type simTally struct {
	traced             bool // read MemStats around every call
	nanos, allocs      int64
	instrs, cycles     int64
	peCycles, peBusy   int64
	queueSum           int64
	cacheHits, cacheMs int64
	evictions          int64
	ringMsgs, ringWait int64
	contexts, switches int64
	rolled             int64
}

// run executes one simulation, adding its cost and counters to the tally.
func (t *simTally) run(art *compile.Artifact, pes int, params sim.Params) (*sim.Result, time.Duration, error) {
	var before, after runtime.MemStats
	if t.traced {
		runtime.ReadMemStats(&before)
	}
	start := time.Now()
	res, err := sim.Run(art.Object, pes, params)
	d := time.Since(start)
	if t.traced {
		runtime.ReadMemStats(&after)
		t.allocs += int64(after.Mallocs - before.Mallocs)
	}
	if err != nil {
		return nil, d, err
	}
	t.nanos += int64(d)
	t.instrs += res.Instructions
	t.cycles += res.Cycles
	t.peCycles += res.Cycles * int64(res.NumPEs)
	for _, s := range res.PEStats {
		t.peBusy += s.Cycles
		t.queueSum += s.QueueSum
	}
	t.cacheHits += res.Cache.Hits
	t.cacheMs += res.Cache.Misses
	t.evictions += res.Cache.Evictions
	t.ringMsgs += res.Ring.Messages
	t.ringWait += res.Ring.WaitCycles
	t.contexts += res.Kernel.ContextsCreated
	t.switches += res.Switches
	t.rolled += res.RolledRegisters
	return res, d, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// reportHost writes the simulator's host cost per simulated instruction.
func (t *simTally) reportHost(rep *report) {
	rep.set("sim.ns_per_instr", ratio(t.nanos, t.instrs), "ns")
	rep.set("sim.allocs_per_kinstr", 1000*ratio(t.allocs, t.instrs), "count")
}

// reportCounters writes the simulated machine's exact counters.
func (t *simTally) reportCounters(rep *report) {
	rep.set("pe.utilization", ratio(t.peBusy, t.peCycles), "ratio")
	rep.set("pe.avg_queue_len", ratio(t.queueSum, t.instrs), "words")
	rep.set("mcache.hit_ratio", ratio(t.cacheHits, t.cacheHits+t.cacheMs), "ratio")
	rep.set("mcache.evictions", float64(t.evictions), "count")
	rep.set("ring.messages", float64(t.ringMsgs), "count")
	rep.set("ring.wait_kcycles", float64(t.ringWait)/1000, "kcycles")
	rep.set("kernel.contexts", float64(t.contexts), "count")
	rep.set("kernel.switches", float64(t.switches), "count")
	rep.set("kernel.rolled_kregs", float64(t.rolled)/1000, "kregs")
}

// codeWords is the size of an artifact's emitted object code in words.
func codeWords(art *compile.Artifact) int {
	var words int
	for _, g := range art.Object.Graphs {
		words += len(g.Code)
	}
	return words
}
