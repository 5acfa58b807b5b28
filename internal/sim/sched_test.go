package sim

import (
	"reflect"
	"strings"
	"testing"

	"queuemachine/internal/compile"
	"queuemachine/internal/sched"
	"queuemachine/internal/workloads"
)

// schedCorpus is the workload set the scheduler differential tests run:
// small instances of every Chapter 6 program shape, so the whole matrix of
// policies × workloads stays fast.
func schedCorpus() []workloads.Workload {
	return []workloads.Workload{
		workloads.MatMul(4),
		workloads.FFT(3),
		workloads.Cholesky(4),
		workloads.BinaryRecursiveSum(16),
	}
}

// runSched executes a compiled workload under one scheduler config with the
// full-log recorder attached, returning the result and the hook log.
func runSched(t *testing.T, wl workloads.Workload, art *compile.Artifact,
	pes int, cfg sched.Config) (*Result, string) {
	t.Helper()
	params := DefaultParams()
	params.Scheduler = cfg
	sys, err := New(art.Object, pes, params)
	if err != nil {
		t.Fatalf("%s/%s: New: %v", wl.Name, cfg.Name(), err)
	}
	rec := &logRecorder{every: 64}
	sys.SetRecorder(rec)
	res, err := sys.Run()
	if err != nil {
		t.Fatalf("%s/%s: Run: %v", wl.Name, cfg.Name(), err)
	}
	if err := wl.Check(art, res.Data); err != nil {
		t.Fatalf("%s/%s on %d PEs: wrong result: %v", wl.Name, cfg.Name(), pes, err)
	}
	return res, rec.b.String()
}

// TestSchedulerDeterminism runs every policy twice on every corpus workload
// and requires identical results AND identical instrumentation logs — the
// strongest observable equality the recorder offers. A policy that
// consulted map iteration order or any other host nondeterminism fails
// here.
func TestSchedulerDeterminism(t *testing.T) {
	for _, wl := range schedCorpus() {
		art, err := compile.Compile(wl.Source, compile.Options{})
		if err != nil {
			t.Fatalf("%s: compile: %v", wl.Name, err)
		}
		for _, policy := range sched.Names() {
			cfg := sched.Config{Policy: policy}
			res1, log1 := runSched(t, wl, art, 4, cfg)
			res2, log2 := runSched(t, wl, art, 4, cfg)
			if !reflect.DeepEqual(res1, res2) {
				t.Errorf("%s/%s: two runs disagree on Result\nfirst:  %+v\nsecond: %+v",
					wl.Name, policy, res1, res2)
			}
			if log1 != log2 {
				t.Errorf("%s/%s: two runs produced different traces (%d vs %d bytes)",
					wl.Name, policy, len(log1), len(log2))
			}
		}
	}
}

// TestFIFOMatchesDefault is the refactor's central differential: an
// explicit fifo policy and the zero-value scheduler config must be the same
// machine, cycle for cycle and hook call for hook call, on every corpus
// workload and machine size.
func TestFIFOMatchesDefault(t *testing.T) {
	for _, wl := range schedCorpus() {
		art, err := compile.Compile(wl.Source, compile.Options{})
		if err != nil {
			t.Fatalf("%s: compile: %v", wl.Name, err)
		}
		for _, pes := range []int{1, 3, 8} {
			def, defLog := runSched(t, wl, art, pes, sched.Config{})
			fifo, fifoLog := runSched(t, wl, art, pes, sched.Config{Policy: sched.FIFO})
			if !reflect.DeepEqual(def, fifo) {
				t.Errorf("%s on %d PEs: explicit fifo differs from default\ndefault: %+v\nfifo:    %+v",
					wl.Name, pes, def, fifo)
			}
			if defLog != fifoLog {
				t.Errorf("%s on %d PEs: explicit fifo trace differs from default", wl.Name, pes)
			}
			if def.Kernel.Steals != 0 {
				t.Errorf("%s on %d PEs: fifo recorded %d steals, want 0",
					wl.Name, pes, def.Kernel.Steals)
			}
		}
	}
}

// TestPolicyCorrectness runs every policy on every corpus workload across
// machine sizes: whatever the schedule, the computed answer must match the
// bit-exact reference (runSched checks it), and steals must only appear
// under the steal policy.
func TestPolicyCorrectness(t *testing.T) {
	for _, wl := range schedCorpus() {
		art, err := compile.Compile(wl.Source, compile.Options{})
		if err != nil {
			t.Fatalf("%s: compile: %v", wl.Name, err)
		}
		for _, policy := range sched.Names() {
			for _, pes := range []int{1, 2, 5, 8} {
				res, _ := runSched(t, wl, art, pes, sched.Config{Policy: policy})
				if policy != sched.Steal && res.Kernel.Steals != 0 {
					t.Errorf("%s/%s on %d PEs: %d steals under a non-stealing policy",
						wl.Name, policy, pes, res.Kernel.Steals)
				}
			}
		}
	}
}

// TestStealPolicySteals pins that the steal policy actually exercises its
// mechanism on an imbalanced workload: matmul on several elements must see
// at least one cross-element dispatch.
func TestStealPolicySteals(t *testing.T) {
	wl := workloads.MatMul(4)
	art, err := compile.Compile(wl.Source, compile.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, _ := runSched(t, wl, art, 6, sched.Config{Policy: sched.Steal})
	if res.Kernel.Steals == 0 {
		t.Error("steal policy recorded no steals on matmul at 6 PEs")
	}
}

// TestUnknownPolicyRejected pins the end-to-end error: sim.New must refuse
// an unknown policy name with a message listing the valid ones.
func TestUnknownPolicyRejected(t *testing.T) {
	wl := workloads.MatMul(4)
	art, err := compile.Compile(wl.Source, compile.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	params := DefaultParams()
	params.Scheduler = sched.Config{Policy: "random"}
	_, err = New(art.Object, 2, params)
	if err == nil {
		t.Fatal("New accepted unknown scheduler policy")
	}
	if !strings.Contains(err.Error(), "steal") {
		t.Errorf("error %q does not list the valid policies", err)
	}
}
