package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"queuemachine/internal/amdahl"
	"queuemachine/internal/compile"
	"queuemachine/internal/profile"
	"queuemachine/internal/sched"
	"queuemachine/internal/sim"
	"queuemachine/internal/workloads"
)

// SweepBenchmarks is the workload corpus of the scheduler design-space
// sweep by short name: the Chapter 6 suite plus the second-generation
// programs. Every run's answer is verified against the workload's bit-exact
// reference before its cycle count is admitted into the report.
func SweepBenchmarks() map[string]workloads.Workload {
	return map[string]workloads.Workload{
		"matmul":     workloads.MatMul(8),
		"fft":        workloads.FFT(6),
		"cholesky":   workloads.Cholesky(8),
		"congruence": workloads.Congruence(8),
		"bitonic":    workloads.Bitonic(4),
		"lu":         workloads.LU(6),
		"stencil":    workloads.Stencil(16, 4),
		"chain":      workloads.Chain(24),
	}
}

// SweepBenchmarkNames lists the corpus in stable order.
func SweepBenchmarkNames() []string {
	names := make([]string, 0, len(SweepBenchmarks()))
	for n := range SweepBenchmarks() {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SweepSpec is the design-space grid: every combination of benchmark,
// scheduling policy, machine size, message-cache capacity and ring
// partition count is simulated once. Zero MCacheEntries/Partitions entries
// select the defaults (64 entries, Figure 5.18 partitioning); empty slices
// mean "defaults only".
type SweepSpec struct {
	Benchmarks    []string `json:"benchmarks"`
	Policies      []string `json:"policies"`
	PECounts      []int    `json:"pe_counts"`
	MCacheEntries []int    `json:"mcache_entries,omitempty"`
	Partitions    []int    `json:"partitions,omitempty"`
}

// DefaultSweepSpec is the full design-space grid of the scheduler study:
// the Chapter 6 corpus under every policy from one processing element to
// sixty-four.
func DefaultSweepSpec() SweepSpec {
	return SweepSpec{
		Benchmarks: SweepBenchmarkNames(),
		Policies:   sched.Names(),
		PECounts:   []int{1, 2, 4, 8, 16, 32, 64},
	}
}

// SmokeSweepSpec is the CI smoke grid: three benchmarks (one of them
// channel-bound), both policies, two machine sizes — small enough for a
// report-only CI job, broad enough to exercise the stealing code path
// beyond the FIFO baseline on both compute- and communication-dominated
// programs.
func SmokeSweepSpec() SweepSpec {
	return SweepSpec{
		Benchmarks: []string{"matmul", "fft", "chain"},
		Policies:   sched.Names(),
		PECounts:   []int{2, 8},
	}
}

// SweepResultPoint is one simulated grid point with its profiler cause
// attribution.
type SweepResultPoint struct {
	Benchmark     string `json:"benchmark"`
	Policy        string `json:"policy"`
	PEs           int    `json:"pes"`
	MCacheEntries int    `json:"mcache_entries,omitempty"`
	Partitions    int    `json:"partitions,omitempty"`

	Cycles       int64   `json:"cycles"`
	Instructions int64   `json:"instructions"`
	Switches     int64   `json:"switches"`
	Migrations   int64   `json:"migrations"`
	Steals       int64   `json:"steals"`
	Utilization  float64 `json:"utilization"`

	// Speedup is cycles at the series' smallest machine over cycles here
	// (the Figures 6.8–6.12 throughput ratio, per policy).
	Speedup float64 `json:"speedup"`
	// VsFifo is fifo's cycles over this policy's cycles at the identical
	// configuration: > 1 means the policy beats the thesis baseline.
	VsFifo float64 `json:"vs_fifo,omitempty"`

	// Causes is the whole-machine attribution (sums to PEs × Cycles);
	// CritPathCauses partitions the makespan along the dynamic critical
	// path, where dispatch-wait — ready work waiting for a processor —
	// is the signal a scheduling policy can remove.
	Causes           map[string]int64 `json:"causes"`
	CritPathCauses   map[string]int64 `json:"critpath_causes"`
	DispatchWaitFrac float64          `json:"dispatch_wait_frac"`
}

// SweepCurve is one (benchmark, policy, cache, partitions) series across
// machine sizes with its speed-up law fits.
type SweepCurve struct {
	Benchmark     string    `json:"benchmark"`
	Policy        string    `json:"policy"`
	MCacheEntries int       `json:"mcache_entries,omitempty"`
	Partitions    int       `json:"partitions,omitempty"`
	PECounts      []int     `json:"pe_counts"`
	Speedups      []float64 `json:"speedups"`
	// AmdahlF is the classic single-parameter fit; ModifiedF/ModifiedG
	// the two-parameter law of §6.4 that admits super-linear margins.
	AmdahlF   float64 `json:"amdahl_f"`
	ModifiedF float64 `json:"modified_f"`
	ModifiedG float64 `json:"modified_g"`
}

// SweepReport is the design-space explorer's JSON artifact.
type SweepReport struct {
	Spec   SweepSpec          `json:"spec"`
	Points []SweepResultPoint `json:"points"`
	Curves []SweepCurve       `json:"curves"`
}

// RunPolicySweep simulates the full grid, verifying every run's answer,
// attaching profiler cause attribution to every point, and fitting the
// speed-up laws per series. Progress lines go to w when non-nil.
func RunPolicySweep(ctx context.Context, spec SweepSpec, w io.Writer) (*SweepReport, error) {
	benches := SweepBenchmarks()
	caches := spec.MCacheEntries
	if len(caches) == 0 {
		caches = []int{0}
	}
	parts := spec.Partitions
	if len(parts) == 0 {
		parts = []int{0}
	}
	for _, pol := range spec.Policies {
		if !sched.Valid(pol) {
			return nil, fmt.Errorf("sweep: unknown policy %q (have %v)", pol, sched.Names())
		}
	}

	rep := &SweepReport{Spec: spec}
	// fifo cycles per non-policy configuration, for the VsFifo columns.
	fifoCycles := map[string]int64{}
	configKey := func(bench string, pes, cache, part int) string {
		return fmt.Sprintf("%s/%d/%d/%d", bench, pes, cache, part)
	}

	for _, bench := range spec.Benchmarks {
		wl, ok := benches[bench]
		if !ok {
			return nil, fmt.Errorf("sweep: unknown benchmark %q (have %v)",
				bench, SweepBenchmarkNames())
		}
		art, err := compile.Compile(wl.Source, compile.Options{})
		if err != nil {
			return nil, fmt.Errorf("sweep: compile %s: %w", bench, err)
		}
		graphNames := make([]string, len(art.Object.Graphs))
		for i, g := range art.Object.Graphs {
			graphNames[i] = g.Name
		}
		for _, cache := range caches {
			for _, part := range parts {
				for _, pol := range spec.Policies {
					var base int64
					for _, pes := range spec.PECounts {
						params := sim.DefaultParams()
						params.Scheduler = sched.Config{Policy: pol}
						params.KeepData = true
						if cache > 0 {
							params.MsgCacheEntries = cache
						}
						if part > 0 {
							params.Partitions = part
						}
						sys, err := sim.New(art.Object, pes, params)
						if err != nil {
							return nil, fmt.Errorf("sweep: %s/%s/%d: %w", bench, pol, pes, err)
						}
						p := profile.New(pes)
						p.SetGraphNames(graphNames)
						sys.SetRecorder(p)
						res, err := sys.RunContext(ctx)
						if err != nil {
							return nil, fmt.Errorf("sweep: %s/%s/%d: %w", bench, pol, pes, err)
						}
						if err := wl.Check(art, res.Data); err != nil {
							return nil, fmt.Errorf("sweep: %s/%s/%d PEs: wrong result: %w",
								bench, pol, pes, err)
						}
						prof := p.Finalize(res.Cycles)
						if base == 0 {
							base = res.Cycles
						}
						pt := SweepResultPoint{
							Benchmark:     bench,
							Policy:        pol,
							PEs:           pes,
							MCacheEntries: cache,
							Partitions:    part,
							Cycles:        res.Cycles,
							Instructions:  res.Instructions,
							Switches:      res.Switches,
							Migrations:    res.Kernel.Migrations,
							Steals:        res.Kernel.Steals,
							Utilization:   res.Utilization(),
							Speedup:       float64(base) / float64(res.Cycles),
							Causes:        prof.Causes,
						}
						if cp := prof.CriticalPath; cp != nil && cp.Cycles > 0 {
							pt.CritPathCauses = cp.Causes
							pt.DispatchWaitFrac =
								float64(cp.Causes[profile.CauseDispatchWait.String()]) /
									float64(cp.Cycles)
						}
						key := configKey(bench, pes, cache, part)
						if pol == sched.FIFO {
							fifoCycles[key] = res.Cycles
						}
						if fc, ok := fifoCycles[key]; ok && fc > 0 {
							pt.VsFifo = float64(fc) / float64(res.Cycles)
						}
						rep.Points = append(rep.Points, pt)
						if w != nil {
							fmt.Fprintf(w, "sweep: %-10s %-8s pes=%-2d cycles=%-9d vs-fifo=%.3f dispatch-wait=%.1f%%\n",
								bench, pol, pes, res.Cycles, pt.VsFifo, 100*pt.DispatchWaitFrac)
						}
					}
				}
			}
		}
	}

	// Fit the speed-up laws per series. Points were appended series-major,
	// so consecutive runs of len(PECounts) share a series.
	n := len(spec.PECounts)
	for i := 0; i+n <= len(rep.Points); i += n {
		series := rep.Points[i : i+n]
		ns := make([]int, n)
		sp := make([]float64, n)
		for j, pt := range series {
			ns[j], sp[j] = pt.PEs, pt.Speedup
		}
		c := SweepCurve{
			Benchmark:     series[0].Benchmark,
			Policy:        series[0].Policy,
			MCacheEntries: series[0].MCacheEntries,
			Partitions:    series[0].Partitions,
			PECounts:      ns,
			Speedups:      sp,
		}
		c.AmdahlF = amdahl.FitAmdahl(ns, sp)
		c.ModifiedF, c.ModifiedG = amdahl.FitModified(ns, sp)
		rep.Curves = append(rep.Curves, c)
	}
	return rep, nil
}

// SchedSweep is the qmexp entry for the design-space explorer: it runs the
// CI smoke grid and prints the per-point progress and winners table. The
// full grid (every benchmark and policy out to 64 processing elements, with
// cache and partition variants) is `qbench -sweep`.
func SchedSweep(w io.Writer) error {
	rep, err := RunPolicySweep(context.Background(), SmokeSweepSpec(), w)
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	WriteSweepSummary(w, rep)
	return nil
}

// WriteSweepSummary renders the report's headline per-policy comparison:
// for every (benchmark, machine size) the winning policy and its margin
// over the FIFO baseline.
func WriteSweepSummary(w io.Writer, rep *SweepReport) {
	fmt.Fprintf(w, "%-12s %-4s %-10s %-12s %-9s %-14s %-14s\n",
		"benchmark", "pes", "best", "cycles", "vs-fifo", "dispatch-wait", "steals/migr")
	type key struct {
		bench string
		pes   int
	}
	best := map[key]SweepResultPoint{}
	var order []key
	for _, pt := range rep.Points {
		if pt.MCacheEntries != rep.Points[0].MCacheEntries ||
			pt.Partitions != rep.Points[0].Partitions {
			continue // summarize the first cache/partition plane only
		}
		k := key{pt.Benchmark, pt.PEs}
		b, ok := best[k]
		if !ok {
			order = append(order, k)
		}
		if !ok || pt.Cycles < b.Cycles {
			best[k] = pt
		}
	}
	for _, k := range order {
		pt := best[k]
		fmt.Fprintf(w, "%-12s %-4d %-10s %-12d %-9.3f %-14s %d/%d\n",
			k.bench, k.pes, pt.Policy, pt.Cycles, pt.VsFifo,
			fmt.Sprintf("%.1f%%", 100*pt.DispatchWaitFrac), pt.Steals, pt.Migrations)
	}
}
