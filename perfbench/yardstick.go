package main

import (
	"sort"
	"sync"
	"time"
)

// The host's speed drifts: whole runs minutes apart differ by 10–30% on
// every timing at once, half-speed spells lasting minutes occur, and the
// speed also wanders by ±20% from one second to the next. So every
// end-to-end timing is scaled to a reference host speed, measured by a
// yardstick timed next to the work it scales: reported = raw × yardRefNs
// / median round time (rates are divided by the same factor). The
// yardstick is standard-library code in this package, so no change to
// the repository can alter it, and it allocates nothing, so no change to
// the program's memory behaviour moves it either.
//
// yardRefNs is one round on a 2-vCPU Intel Xeon virtual machine at its
// usual speed.
const yardRefNs = 460_000

// yardRounds is how many rounds scale one measured stretch of work.
const yardRounds = 5

// yardKernel holds one copy's buffers, allocated once.
type yardKernel struct {
	m         map[int]int
	next      []int32
	val, keys []int
	sink      int
}

func newYardKernel() *yardKernel {
	return &yardKernel{m: make(map[int]int, 1024), next: make([]int32, 4096),
		val: make([]int, 4096), keys: make([]int, 4096)}
}

// round is one yardstick round: map updates, an index-linked list walk,
// a sort and branchy integer code, like the simulator's and the serving
// layers' own inner loops.
func (k *yardKernel) round() {
	clear(k.m)
	x := uint64(88172645463325252)
	head := int32(-1)
	for i := range k.keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := int(x % 1021)
		k.m[v] += i
		k.val[i], k.next[i], head = v, head, int32(i)
		k.keys[i] = v
	}
	sort.Ints(k.keys)
	for n := head; n >= 0; n = k.next[n] {
		if k.val[n]&1 == 0 {
			k.sink += k.m[k.val[n]]
		} else {
			k.sink -= k.val[n]
		}
	}
}

// yardstick times the rounds of one run.
type yardstick struct {
	kernel *yardKernel
	all    []float64 // ns per round, every round of the run
}

func newYardstick() *yardstick { return &yardstick{kernel: newYardKernel()} }

// rounds times n rounds and returns their times in ns.
func (y *yardstick) rounds(n int) []float64 {
	ts := make([]float64, n)
	for i := range ts {
		start := time.Now()
		y.kernel.round()
		ts[i] = float64(time.Since(start))
	}
	y.all = append(y.all, ts...)
	return ts
}

// scale times n rounds and returns the factor that converts a time
// measured now to reference-host time.
func (y *yardstick) scale(n int) float64 { return scaleOf(y.rounds(n)) }

// scaleOf converts round times to a reference-host factor.
func scaleOf(ts []float64) float64 {
	return yardRefNs / median(append([]float64(nil), ts...))
}

// sample is one round timed during work that cannot pause for the
// yardstick.
type sample struct {
	at time.Time
	ns float64
}

// during times one round every interval until stop is called, for work
// that cannot pause for the yardstick; stop returns the rounds in time
// order. One round every 50 ms costs about 1% of one CPU.
func (y *yardstick) during(every time.Duration) (stop func() []sample) {
	done := make(chan struct{})
	var ss []sample
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case t := <-tick.C:
				ss = append(ss, sample{t, y.rounds(1)[0]})
			}
		}
	}()
	return func() []sample {
		close(done)
		wg.Wait()
		return ss
	}
}

// scaleDuring is the reference-host factor over all of ss.
func scaleDuring(ss []sample) float64 {
	ns := make([]float64, len(ss))
	for i, s := range ss {
		ns[i] = s.ns
	}
	return scaleOf(ns)
}

// scaleNear is the reference-host factor of the rounds within window of
// t: a slow spell of a second or two then scales the requests it slowed
// and no others.
func scaleNear(ss []sample, t time.Time, window time.Duration) float64 {
	lo := sort.Search(len(ss), func(i int) bool { return !ss[i].at.Before(t.Add(-window)) })
	hi := sort.Search(len(ss), func(i int) bool { return ss[i].at.After(t.Add(window)) })
	if hi-lo < yardRounds {
		return scaleDuring(ss)
	}
	return scaleDuring(ss[lo:hi])
}

// roundUS is the median round time of the whole run in µs.
func (y *yardstick) roundUS() float64 {
	return median(append([]float64(nil), y.all...)) / 1e3
}
