// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload per process — the exact-baseline simulation suite, or the
// serving fleet under warm or cold-compile traffic — and prints every
// metric by name with its unit, ending with one JSON result line.
//
//	perfbench --workload suite|serve-hot|serve-fresh --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics of a separate traced run. It checks every
// output against a direct simulation and exits non-zero when any
// operation failed. README.md in this directory lists the metrics, the
// workloads and the measured run-to-run spreads.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload run produces.
type report struct {
	Attempted int64
	Failed    int64
	// Problems lists every failed check, for the diagnostic output.
	Problems []string
	Metrics  map[string]metric
}

func newReport() *report { return &report{Metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records one failed operation; only the first few reasons are kept.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// options are the command-line arguments every workload receives.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	// dir is a scratch directory inside the checkout, removed on exit.
	dir string
}

// phase is the length of the open-loop timed phase.
func (o options) phase() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// watchdog bounds a whole run: a hung fleet must end the process with an
// error, never leave it running.
const watchdog = 160 * time.Second

func main() {
	workload := flag.String("workload", "", "suite, serve-hot or serve-fresh")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	workdir := flag.String("workdir", ".bench_build/tmp", "scratch directory for cache dirs and profiles")
	flag.Parse()

	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", watchdog)
		os.Exit(3)
	})
	runtime.GOMAXPROCS(runtime.NumCPU())

	run, ok := map[string]func(options) (*report, error){
		"suite":       runSuite,
		"serve-hot":   runServeHot,
		"serve-fresh": runServeFresh,
	}[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload suite|serve-hot|serve-fresh --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fatal(err)
	}
	rep, err := run(options{seed: *seed, seconds: *seconds, trace: *trace == 1, dir: dir})
	os.RemoveAll(dir)
	if err != nil {
		fatal(err)
	}
	if *trace == 0 {
		rep.set("mem_peak_mb", peakRSSMB(), "MB")
	}
	os.Exit(emit(rep))
}

// emit prints the metrics, one per line, then the JSON result line; it
// returns the exit status.
func emit(rep *report) int {
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Printf("%-26s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, p := range rep.Problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}
	correct := rep.Failed == 0
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB, falling
// back to the Go runtime's total reservation where /proc is unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if fields := strings.Fields(sc.Text()); len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// median of xs (0 for none); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of xs (0 for none); xs is
// reordered. Infinite entries — failed requests — sort last.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// finite maps an infinite latency (a failed request at the percentile) to
// the largest JSON-encodable number.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianSetup runs setup reps times and returns the last result and the
// median duration in reference-host seconds; every earlier result is
// released with drop.
func medianSetup[T any](reps int, yard *yardstick, setup func() (T, error), drop func(T)) (T, float64, error) {
	var last T
	secs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if i > 0 {
			drop(last)
		}
		scale := yard.scale(yardRounds)
		start := time.Now()
		v, err := setup()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		secs = append(secs, time.Since(start).Seconds()*scale)
		last = v
	}
	return last, median(secs), nil
}
