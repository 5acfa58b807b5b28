package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"queuemachine/internal/gate"
	"queuemachine/internal/service"
	"queuemachine/internal/xtrace"
)

// The fleet mirrors the CI scale-smoke job at the size this host can run
// without oversubscription: replicas × workers stays within nproc.
const (
	fleetReplicas = 2
	servePEs      = 2
)

// fleet is qgate in front of peered qmd replicas, all on loopback in this
// process, each replica persisting artifacts to its own fresh cache dir.
type fleet struct {
	gate     string
	replicas []string
	servers  []*http.Server
	svcs     []*service.Service
	wg       sync.WaitGroup
}

// fleetPort is the first of the loopback ports the fleet prefers, one
// per replica and then the gate. The consistent-hash ring hashes replica
// URLs, so fixed ports split the programs between replicas the same way
// in every run; with ports the system picks, the split — and with it the
// closed-loop throughput — changed from run to run.
const fleetPort = 38471

// listen opens port on loopback, or a port the system picks when that
// one is taken.
func listen(port int) (net.Listener, error) {
	ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
	if err == nil {
		return ln, nil
	}
	fmt.Fprintf(os.Stderr, "perfbench: port %d: %v; using another\n", port, err)
	return net.Listen("tcp", "127.0.0.1:0")
}

// startFleet boots the fleet; traceCap sizes every flight recorder.
func startFleet(dir string, traceCap int) (*fleet, error) {
	root, err := os.MkdirTemp(dir, "fleet-")
	if err != nil {
		return nil, err
	}
	lns := make([]net.Listener, fleetReplicas+1)
	for i := range lns {
		if lns[i], err = listen(fleetPort + i); err != nil {
			for _, ln := range lns[:i] {
				ln.Close()
			}
			return nil, err
		}
	}
	f := &fleet{gate: "http://" + lns[fleetReplicas].Addr().String()}
	for _, ln := range lns[:fleetReplicas] {
		f.replicas = append(f.replicas, "http://"+ln.Addr().String())
	}
	handlers := make([]http.Handler, 0, len(lns))
	for i, url := range f.replicas {
		svc, err := service.New(service.Config{
			Workers:       1,
			CacheDir:      filepath.Join(root, fmt.Sprintf("cache%d", i)),
			Self:          url,
			Peers:         f.replicas,
			Process:       url,
			TraceCapacity: traceCap,
		})
		if err != nil {
			err = errors.Join(err, f.shutdownSvcs())
			for _, ln := range lns {
				ln.Close()
			}
			return nil, err
		}
		f.svcs = append(f.svcs, svc)
		handlers = append(handlers, svc.Handler())
	}
	g, err := gate.New(gate.Config{Replicas: f.replicas, TraceCapacity: traceCap})
	if err != nil {
		err = errors.Join(err, f.shutdownSvcs())
		for _, ln := range lns {
			ln.Close()
		}
		return nil, err
	}
	handlers = append(handlers, g.Handler())
	for i, ln := range lns {
		srv := &http.Server{Handler: handlers[i]}
		f.servers = append(f.servers, srv)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			srv.Serve(ln) // returns ErrServerClosed on shutdown
		}()
	}
	return f, nil
}

func (f *fleet) shutdownSvcs() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	for _, s := range f.svcs {
		errs = append(errs, s.Shutdown(ctx))
	}
	return errors.Join(errs...)
}

// stop shuts the gate, then the replicas, and waits for every server
// goroutine to return.
func (f *fleet) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := len(f.servers) - 1; i >= 0; i-- {
		if err := f.servers[i].Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: server shutdown:", err)
		}
	}
	if err := f.shutdownSvcs(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: replica drain:", err)
	}
	f.wg.Wait()
}

// statsz sums the replicas' /statsz counters the benchmark reads.
type statsz struct {
	runs, rejected, coalesced int64
	hits, misses, diskWrites  int64
	instrs                    int64
	simSeconds                float64
}

func (f *fleet) statsz(hc *http.Client) (statsz, error) {
	var sum statsz
	for _, url := range f.replicas {
		resp, err := hc.Get(url + "/statsz")
		if err != nil {
			return sum, err
		}
		var st service.ServiceStats
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return sum, fmt.Errorf("%s/statsz: %w", url, err)
		}
		sum.runs += st.Runs
		sum.rejected += st.Rejected
		sum.coalesced += st.CoalescedRuns
		sum.hits += st.Cache.Hits
		sum.misses += st.Cache.Misses
		if st.Disk != nil {
			sum.diskWrites += st.Disk.Writes
		}
		sum.instrs += st.InstructionsServed
		sum.simSeconds += st.SimSeconds
	}
	return sum, nil
}

func (s statsz) sub(o statsz) statsz {
	return statsz{
		runs: s.runs - o.runs, rejected: s.rejected - o.rejected, coalesced: s.coalesced - o.coalesced,
		hits: s.hits - o.hits, misses: s.misses - o.misses, diskWrites: s.diskWrites - o.diskWrites,
		instrs: s.instrs - o.instrs, simSeconds: s.simSeconds - o.simSeconds,
	}
}

// conns is the generator's connection budget: one per host core.
func conns() int { return runtime.NumCPU() }

// newClient returns an HTTP client holding at most conns() connections.
func newClient() *http.Client {
	n := conns()
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n},
	}
}

// runBody is the /run request for one program.
func runBody(src string) []byte {
	b, err := json.Marshal(map[string]any{"source": src, "pes": servePEs})
	if err != nil {
		panic(err) // a map of a string and an int always marshals
	}
	return b
}

// outcome is one request as the client saw it.
type outcome struct {
	prog           int
	status         int
	cycles, instrs int64
	err            error
	due, sent      time.Time
	done           time.Time
	trace          xtrace.TraceID
}

// ok reports whether the request succeeded at the HTTP level.
func (o *outcome) ok() bool { return o.err == nil && o.status == http.StatusOK }

// post sends one /run request and decodes the simulated counters.
func post(hc *http.Client, url string, body []byte, trace xtrace.TraceID) (out outcome) {
	out = outcome{trace: trace}
	req, err := http.NewRequest(http.MethodPost, url+"/run", bytes.NewReader(body))
	if err != nil {
		out.err = err
		return out
	}
	req.Header.Set("Content-Type", "application/json")
	if trace != "" {
		req.Header.Set(xtrace.TraceHeader, string(trace))
	}
	out.sent = time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		out.done = time.Now()
		out.err = err
		return out
	}
	defer resp.Body.Close()
	out.status = resp.StatusCode
	raw, err := io.ReadAll(resp.Body)
	out.done = time.Now()
	if err != nil {
		out.err = err
		return out
	}
	if resp.StatusCode != http.StatusOK {
		out.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
		return out
	}
	var doc struct {
		Stats struct {
			Cycles       int64 `json:"cycles"`
			Instructions int64 `json:"instructions"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		out.err = err
		return out
	}
	out.cycles, out.instrs = doc.Stats.Cycles, doc.Stats.Instructions
	return out
}

// shot is one scheduled request: a program and its due time from the
// start of the phase.
type shot struct {
	prog int
	at   time.Duration
}

// arrivals returns the due times of an open-loop phase at rate per
// second over dur. The gaps between them are the exponential
// distribution's quantiles at evenly spaced probabilities, in seeded
// order: Poisson-like bursts, but the same multiset of gaps for every
// seed, so seeds change the order of the load and not its shape.
func arrivals(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	n := int(rate * dur.Seconds())
	gaps := make([]float64, n)
	for i := range gaps {
		gaps[i] = -math.Log(1-(float64(i)+0.5)/float64(n)) / rate
	}
	rng.Shuffle(n, func(i, j int) { gaps[i], gaps[j] = gaps[j], gaps[i] })
	at := make([]time.Duration, n)
	t := 0.0
	for i, g := range gaps {
		t += g
		at[i] = time.Duration(t * float64(time.Second))
	}
	return at
}

// zipfMix returns n draws over k programs in seeded order, program i
// appearing in proportion to 1/(i+1)^s (largest-remainder rounding), so
// every seed sends the same mix.
func zipfMix(rng *rand.Rand, n, k int, s float64) []int {
	w := make([]float64, k)
	var sum float64
	for i := range w {
		w[i] = math.Pow(float64(i+1), -s)
		sum += w[i]
	}
	counts := make([]int, k)
	rest := make([]int, k)
	left := n
	for i := range w {
		counts[i] = int(float64(n) * w[i] / sum)
		left -= counts[i]
		rest[i] = i
	}
	frac := func(i int) float64 { e := float64(n) * w[i] / sum; return e - math.Floor(e) }
	sort.SliceStable(rest, func(a, b int) bool { return frac(rest[a]) > frac(rest[b]) })
	for _, i := range rest[:left] {
		counts[i]++
	}
	mix := make([]int, 0, n)
	for i, c := range counts {
		for ; c > 0; c-- {
			mix = append(mix, i)
		}
	}
	rng.Shuffle(n, func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
	return mix
}

// each runs fn(i) for every i below n on conns() goroutines, each taking
// the next index and holding one connection, and returns when all are
// done.
func each(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// openLoop fires every shot at its due time. A request that finds every
// connection busy fires late; its latency still counts from its due time.
// With traceOdd every odd-numbered request carries a fresh trace id, so
// traced and untraced requests share one time window and one program
// mix.
func openLoop(hc *http.Client, url string, bodies [][]byte, shots []shot, traceOdd bool) []outcome {
	outs := make([]outcome, len(shots))
	start := time.Now().Add(10 * time.Millisecond)
	each(len(shots), func(i int) {
		due := start.Add(shots[i].at)
		time.Sleep(time.Until(due))
		var id xtrace.TraceID
		if traceOdd && i%2 == 1 {
			id = xtrace.NewTraceID()
		}
		outs[i] = post(hc, url, bodies[shots[i].prog], id)
		outs[i].prog, outs[i].due = shots[i].prog, due
	})
	return outs
}

// closedLoop sends progs back to back on every connection and returns
// the outcomes and the wall time of the whole batch.
func closedLoop(hc *http.Client, url string, bodies [][]byte, progs []int) ([]outcome, time.Duration) {
	outs := make([]outcome, len(progs))
	start := time.Now()
	each(len(progs), func(i int) {
		outs[i] = post(hc, url, bodies[progs[i]], "")
		outs[i].prog, outs[i].due = progs[i], outs[i].sent
	})
	return outs, time.Since(start)
}

// latencies is each outcome's latency from its due time in ms, infinite
// for a failed request.
func latencies(outs []outcome, bad []bool) []float64 {
	lat := make([]float64, len(outs))
	for i := range outs {
		if bad[i] {
			lat[i] = math.Inf(1)
		} else {
			lat[i] = ms(outs[i].done.Sub(outs[i].due))
		}
	}
	return lat
}

// lagP99 is how late the generator fired, p99 over the phase, in ms.
func lagP99(outs []outcome) float64 {
	lag := make([]float64, len(outs))
	for i := range outs {
		lag[i] = ms(outs[i].sent.Sub(outs[i].due))
	}
	return quantile(lag, 0.99)
}
