package service

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// parSquares fans four workers out so scheduler placement has something to
// decide; any machine size computes the same segment.
const parSquares = `def nw = 4:
var out[nw]:
proc work(value t) =
  out[t] := (t + 1) * (t + 1)
seq
  par t = [0 for nw]
    work(t)
`

func TestRunSchedulerPolicy(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	var def, steal runResponse
	if code, raw := post(t, ts.URL+"/run",
		runRequest{Source: parSquares, PEs: 4}, &def); code != 200 {
		t.Fatalf("default run: %d %s", code, raw)
	}
	if def.Stats.Scheduler != "fifo" {
		t.Errorf("default run reports scheduler %q, want fifo", def.Stats.Scheduler)
	}
	if code, raw := post(t, ts.URL+"/run",
		runRequest{Source: parSquares, PEs: 4, Scheduler: "steal"}, &steal); code != 200 {
		t.Fatalf("steal run: %d %s", code, raw)
	}
	if steal.Stats.Scheduler != "steal" {
		t.Errorf("steal run reports scheduler %q, want steal", steal.Stats.Scheduler)
	}
	if def.Stats.Migrations == 0 {
		t.Error("parallel run on 4 PEs reported zero migrations")
	}

	st := svc.Stats()
	if st.SchedRuns["fifo"] != 1 || st.SchedRuns["steal"] != 1 {
		t.Errorf("SchedRuns = %v, want one fifo and one steal run", st.SchedRuns)
	}
	if st.SchedMigrations == 0 {
		t.Errorf("SchedMigrations = 0 after parallel runs")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"qmd_sched_migrations_total",
		"qmd_sched_steals_total",
		`qmd_sched_runs_total{policy="fifo"} 1`,
		`qmd_sched_runs_total{policy="steal"} 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestRunSchedulerUnknownRejected(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	code, raw := post(t, ts.URL+"/run",
		runRequest{Source: parSquares, PEs: 2, Scheduler: "lifo"}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown scheduler: status %d, want 400 (%s)", code, raw)
	}
	msg := errorBody(t, raw)
	for _, name := range []string{"fifo", "steal"} {
		if !strings.Contains(msg, name) {
			t.Errorf("error %q does not list policy %q", msg, name)
		}
	}
	if svc.Stats().Runs != 1 {
		t.Errorf("Runs = %d, want the rejected request counted", svc.Stats().Runs)
	}

	// The params overlay path is validated too.
	code, raw = post(t, ts.URL+"/run", map[string]any{
		"source": parSquares,
		"pes":    2,
		"params": map[string]any{"Scheduler": map[string]any{"policy": "bogus"}},
	}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("params-overlay scheduler: status %d, want 400 (%s)", code, raw)
	}
	errorBody(t, raw)
}

func TestRunSchedulerOverlayAccepted(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var resp runResponse
	code, raw := post(t, ts.URL+"/run", map[string]any{
		"source": parSquares,
		"pes":    4,
		"params": map[string]any{"Scheduler": map[string]any{"policy": "steal"}},
	}, &resp)
	if code != 200 {
		t.Fatalf("steal overlay run: %d %s", code, raw)
	}
	if resp.Stats.Scheduler != "steal" {
		t.Errorf("overlay run reports scheduler %q, want steal", resp.Stats.Scheduler)
	}
}
