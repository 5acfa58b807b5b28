package sched

// ctxFIFO is a ready queue that pops by advancing a head index instead of
// re-slicing, so the backing array is reused once drained and steady-state
// ready/dispatch traffic never reallocates. (Moved here from the kernel,
// which used it as its only dispatch structure.)
type ctxFIFO struct {
	ids  []int
	head int
}

func (f *ctxFIFO) push(id int) { f.ids = append(f.ids, id) }

func (f *ctxFIFO) pop() (int, bool) {
	if f.head == len(f.ids) {
		return 0, false
	}
	id := f.ids[f.head]
	f.head++
	if f.head == len(f.ids) {
		f.ids = f.ids[:0]
		f.head = 0
	}
	return id, true
}

func (f *ctxFIFO) len() int { return len(f.ids) - f.head }

// fifoPolicy is the exact §6.2 baseline: least-loaded placement and
// per-element FIFO dispatch.
type fifoPolicy struct {
	numPEs int
	loads  Loads
	ready  []ctxFIFO
}

func newFIFO(numPEs int) *fifoPolicy {
	return &fifoPolicy{numPEs: numPEs, ready: make([]ctxFIFO, numPEs)}
}

// Place is the thesis placement rule: the element hosting the fewest live
// contexts, ties broken by lowest identifier.
func (f *fifoPolicy) Place() int {
	best := 0
	for p := 1; p < f.numPEs; p++ {
		if f.loads.Resident(p) < f.loads.Resident(best) {
			best = p
		}
	}
	return best
}

func (f *fifoPolicy) Name() string            { return FIFO }
func (f *fifoPolicy) Bind(loads Loads)        { f.loads = loads }
func (f *fifoPolicy) Enqueue(peID, ctxID int) { f.ready[peID].push(ctxID) }
func (f *fifoPolicy) Len(peID int) int        { return f.ready[peID].len() }

func (f *fifoPolicy) Dispatch(peID int) (int, int, bool) {
	id, ok := f.ready[peID].pop()
	return id, peID, ok
}

// stealPolicy is fifo placement plus work stealing: an element whose own
// queue is empty pulls the oldest ready context from the longest queue in
// the machine (ties by lowest victim identifier). The kernel re-homes the
// stolen context and the simulator charges the migration a ring transfer
// plus the context's window roll-out.
type stealPolicy struct {
	fifoPolicy
}

func (s *stealPolicy) Name() string { return Steal }

func (s *stealPolicy) Dispatch(peID int) (int, int, bool) {
	if id, ok := s.ready[peID].pop(); ok {
		return id, peID, true
	}
	victim, longest := -1, 0
	for p := range s.ready {
		if p == peID {
			continue
		}
		if n := s.ready[p].len(); n > longest {
			victim, longest = p, n
		}
	}
	if victim < 0 {
		return 0, peID, false
	}
	id, _ := s.ready[victim].pop()
	return id, victim, true
}
