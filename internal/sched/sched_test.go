package sched

import (
	"strings"
	"testing"
)

// fakeLoads is a Loads stub over a slice of per-element context counts.
type fakeLoads []int

func (f fakeLoads) Resident(pe int) int { return f[pe] }

func TestValidAndNames(t *testing.T) {
	for _, name := range append(Names(), "") {
		if !Valid(name) {
			t.Errorf("Valid(%q) = false, want true", name)
		}
	}
	if Valid("round-robin") {
		t.Error("Valid accepted an unknown policy")
	}
	if len(Names()) != 2 {
		t.Errorf("Names() = %v, want 2 policies", Names())
	}
}

func TestNewUnknownPolicy(t *testing.T) {
	_, err := New(Config{Policy: "lifo"}, 4)
	if err == nil {
		t.Fatal("New accepted unknown policy")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list valid policy %q", err, name)
		}
	}
}

func TestNewResolvesEmptyToFIFO(t *testing.T) {
	pol, err := New(Config{}, 2)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if pol.Name() != FIFO {
		t.Errorf("zero config built %q, want fifo", pol.Name())
	}
}

func TestFIFOPlacementAndOrder(t *testing.T) {
	pol, _ := New(Config{Policy: FIFO}, 3)
	pol.Bind(fakeLoads{2, 1, 1})
	if got := pol.Place(); got != 1 {
		t.Errorf("Place = %d, want least-loaded lowest id 1", got)
	}
	pol.Enqueue(0, 10)
	pol.Enqueue(0, 11)
	pol.Enqueue(0, 12)
	if n := pol.Len(0); n != 3 {
		t.Fatalf("Len = %d, want 3", n)
	}
	for _, want := range []int{10, 11, 12} {
		id, from, ok := pol.Dispatch(0)
		if !ok || id != want || from != 0 {
			t.Fatalf("Dispatch = (%d, %d, %v), want (%d, 0, true)", id, from, ok, want)
		}
	}
	if _, _, ok := pol.Dispatch(0); ok {
		t.Error("Dispatch from empty queue succeeded")
	}
}

func TestStealDispatch(t *testing.T) {
	pol, _ := New(Config{Policy: Steal}, 3)
	pol.Bind(fakeLoads{0, 0, 0})
	pol.Enqueue(0, 1)
	pol.Enqueue(1, 21)
	pol.Enqueue(2, 31)
	pol.Enqueue(2, 32)

	// Own work dispatches first.
	if id, from, ok := pol.Dispatch(0); !ok || id != 1 || from != 0 {
		t.Fatalf("Dispatch(0) = (%d, %d, %v), want own context 1", id, from, ok)
	}
	// Element 0 is now idle; queue 2 is longest, so the oldest context
	// there is stolen.
	id, from, ok := pol.Dispatch(0)
	if !ok || id != 31 || from != 2 {
		t.Fatalf("Dispatch(0) = (%d, %d, %v), want steal of 31 from 2", id, from, ok)
	}
	// Queues 1 and 2 now tie at one context: the lower victim id wins.
	if id, from, ok := pol.Dispatch(0); !ok || id != 21 || from != 1 {
		t.Fatalf("Dispatch(0) = (%d, %d, %v), want steal of 21 from 1", id, from, ok)
	}
	if id, from, ok := pol.Dispatch(0); !ok || id != 32 || from != 2 {
		t.Fatalf("Dispatch(0) = (%d, %d, %v), want steal of 32 from 2", id, from, ok)
	}
	// Every queue is empty: nothing to steal.
	if id, from, ok := pol.Dispatch(0); ok {
		t.Fatalf("Dispatch(0) = (%d, %d, true) from an empty machine", id, from)
	}
}

func TestCtxFIFOReusesBacking(t *testing.T) {
	var f ctxFIFO
	for round := 0; round < 3; round++ {
		for i := 0; i < 4; i++ {
			f.push(round*10 + i)
		}
		for i := 0; i < 4; i++ {
			id, ok := f.pop()
			if !ok || id != round*10+i {
				t.Fatalf("round %d: pop = (%d, %v), want %d", round, id, ok, round*10+i)
			}
		}
		if f.head != 0 || len(f.ids) != 0 {
			t.Fatalf("round %d: queue not reset after drain (head %d, len %d)",
				round, f.head, len(f.ids))
		}
	}
}
