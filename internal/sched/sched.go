// Package sched is the pluggable kernel scheduling subsystem. The
// multiprocessing kernel of §6.2 hard-codes two decisions: where a freshly
// forked context is placed (least-loaded processing element) and which
// ready context a free element dispatches next (per-element FIFO). Both
// turned out to be the Chapter 6 bottleneck — the cycle-attribution
// profiler shows the matmul makespan at eight elements dominated by
// dispatch-wait, not dependences — so this package lifts them behind the
// Policy interface and ships two implementations:
//
//	fifo   the thesis baseline: least-loaded placement, per-element FIFO
//	       dispatch. Bit-identical to the hard-coded kernel on every
//	       Chapter 6 benchmark; the default.
//	steal  fifo placement, but an element whose own queue is empty pulls
//	       the oldest ready context from the longest queue in the
//	       machine. The simulator charges the migration a ring transfer
//	       plus the stolen context's window roll-out.
//
// Every policy is deterministic: decisions depend only on kernel state and
// arrival order, never on host-side iteration order or randomness, so two
// runs of the same program under the same policy produce identical cycle
// counts and traces.
package sched

import (
	"fmt"
	"strings"
)

// Policy names.
const (
	FIFO  = "fifo"
	Steal = "steal"
)

// Names lists the available policies in presentation order.
func Names() []string { return []string{FIFO, Steal} }

// Valid reports whether name selects a policy ("" selects the fifo
// default).
func Valid(name string) bool {
	switch name {
	case "", FIFO, Steal:
		return true
	}
	return false
}

// Config selects the scheduling policy for one run. The zero value is the
// thesis baseline (fifo). It travels inside sim.Params, so a qmd request
// can set it per run; there is no process-global scheduling state.
type Config struct {
	// Policy names the scheduling policy; "" means fifo.
	Policy string `json:"policy,omitempty"`
}

// Name resolves the configured policy name, mapping "" to fifo.
func (c Config) Name() string {
	if c.Policy == "" {
		return FIFO
	}
	return c.Policy
}

// Loads is the kernel-state view policies read when placing contexts. The
// kernel itself satisfies it and binds after construction (the kernel and
// policy reference each other).
type Loads interface {
	// Resident reports how many live contexts an element hosts.
	Resident(pe int) int
}

// Policy makes the kernel's two scheduling decisions: context placement on
// fork and ready-queue ordering on dispatch. Implementations own the
// per-element ready queues; the kernel owns every other piece of context
// state. Methods are never called concurrently (the simulator is a
// single-threaded event loop).
type Policy interface {
	// Name reports the policy's registry name.
	Name() string
	// Bind installs the kernel's load view; called once by kernel.New
	// before any other method.
	Bind(loads Loads)
	// Place chooses the processing element for a freshly forked context.
	Place() int
	// Enqueue appends a ready context to an element's ready set.
	Enqueue(peID, ctxID int)
	// Dispatch removes and returns the context an element should run
	// next. from is the element whose ready set supplied it — equal to
	// peID except when the policy stole the context from another queue.
	Dispatch(peID int) (ctxID, from int, ok bool)
	// Len reports how many contexts wait in an element's ready set.
	Len(peID int) int
}

// New builds the configured policy for a machine of numPEs elements.
func New(cfg Config, numPEs int) (Policy, error) {
	switch cfg.Name() {
	case FIFO:
		return newFIFO(numPEs), nil
	case Steal:
		return &stealPolicy{fifoPolicy: *newFIFO(numPEs)}, nil
	default:
		return nil, fmt.Errorf("sched: unknown policy %q (have %s)",
			cfg.Policy, strings.Join(Names(), ", "))
	}
}
