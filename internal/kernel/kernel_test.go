package kernel

import (
	"strings"
	"testing"

	"queuemachine/internal/pe"
)

func TestChannelAllocation(t *testing.T) {
	k := New(4, nil)
	a, b := k.AllocChannel(), k.AllocChannel()
	if a == 0 || b == 0 || a == b {
		t.Errorf("channels %d, %d", a, b)
	}
	if k.Stats.ChannelsCreated != 2 {
		t.Error("stats")
	}
}

func TestPlacementLeastLoaded(t *testing.T) {
	k := New(3, nil)
	// First three contexts land on distinct PEs.
	seen := map[int]bool{}
	for i := 0; i < 3; i++ {
		_, p := k.CreateContext(0, 32, -1, 0, 0)
		if seen[p] {
			t.Errorf("PE %d reused while others empty", p)
		}
		seen[p] = true
	}
	// Fourth wraps to the lowest-numbered PE.
	_, p := k.CreateContext(0, 32, -1, 0, 0)
	if p != 0 {
		t.Errorf("fourth context on PE %d, want 0", p)
	}
	if k.Stats.ContextsCreated != 4 {
		t.Error("creation count")
	}
	if k.Stats.Migrations != 2 {
		t.Errorf("migrations = %d, want 2 (PEs 1 and 2)", k.Stats.Migrations)
	}
}

func TestReadyQueueFIFO(t *testing.T) {
	k := New(1, nil)
	c1, _ := k.CreateContext(0, 32, -1, 0, 0)
	c2, _ := k.CreateContext(0, 32, -1, 0, 0)
	if k.ReadyCount(0) != 2 {
		t.Fatalf("ready = %d", k.ReadyCount(0))
	}
	got1, from1 := k.NextReady(0)
	got2, _ := k.NextReady(0)
	if got1 != c1 || got2 != c2 {
		t.Error("FIFO order violated")
	}
	if from1 != 0 {
		t.Errorf("fifo dispatch reported source PE %d", from1)
	}
	if got1.Status != pe.Running {
		t.Error("dispatched context not running")
	}
	if c, _ := k.NextReady(0); c != nil {
		t.Error("empty queue returned a context")
	}
}

func TestBlockAndReady(t *testing.T) {
	k := New(1, nil)
	c, _ := k.CreateContext(0, 32, -1, 0, 0)
	k.NextReady(0)
	c.Status = pe.BlockedRecv
	if err := k.Ready(c.ID, 0); err != nil {
		t.Fatal(err)
	}
	if c.Status != pe.Ready || k.ReadyCount(0) != 1 {
		t.Error("ready transition broken")
	}
	// Double-ready is rejected.
	if err := k.Ready(c.ID, 0); err == nil {
		t.Error("double ready accepted")
	}
	if err := k.Ready(999, 0); err == nil {
		t.Error("unknown context accepted")
	}
}

func TestExitLifecycle(t *testing.T) {
	k := New(2, nil)
	c, p := k.CreateContext(0, 32, -1, 0, 0)
	if k.Live() != 1 || k.Resident(p) != 1 {
		t.Fatal("creation accounting")
	}
	if err := k.Exit(c.ID, 0); err != nil {
		t.Fatal(err)
	}
	if k.Live() != 0 || k.Resident(p) != 0 {
		t.Error("exit accounting")
	}
	if _, err := k.Context(c.ID); err == nil {
		t.Error("dead context still reachable")
	}
	if err := k.Exit(c.ID, 0); err == nil {
		t.Error("double exit accepted")
	}
	if _, err := k.Home(c.ID); err == nil {
		t.Error("dead context has a home")
	}
}

func TestSnapshot(t *testing.T) {
	k := New(1, nil)
	k.CreateContext(3, 32, 7, 0, 0)
	snap := k.Snapshot()
	if len(snap) != 1 || !strings.Contains(snap[0], "graph 3") || !strings.Contains(snap[0], "parent 7") {
		t.Errorf("snapshot = %v", snap)
	}
}

func TestContextLookup(t *testing.T) {
	k := New(1, nil)
	c, _ := k.CreateContext(0, 32, -1, 0, 0)
	got, err := k.Context(c.ID)
	if err != nil || got != c {
		t.Error("lookup failed")
	}
	home, err := k.Home(c.ID)
	if err != nil || home != 0 {
		t.Error("home failed")
	}
}
