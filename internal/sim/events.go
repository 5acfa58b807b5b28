package sim

import "math"

// eventKind discriminates the simulator's event types.
type eventKind uint8

const (
	// evStep: a processing element executes its running context's next
	// instruction (and, under straight-line batching, every following
	// instruction up to the queue's next-event horizon).
	evStep eventKind = iota
	// evChanReq: a channel operation request arrives at its home message
	// processor.
	evChanReq
	// evRecvDone: a rendezvous value arrives at a blocked receiver.
	evRecvDone
	// evSendDone: a rendezvous acknowledgement arrives at a blocked
	// sender.
	evSendDone
	// evWake: a context's real-time wait expires.
	evWake
	// evKick: a processing element should try to dispatch a context.
	evKick
)

type chanOp uint8

const (
	opSend chanOp = iota
	opRecv
)

// event is one scheduled simulator occurrence. Events are plain values:
// they live inline in the queue's backing array and are copied in and out
// of it, so scheduling allocates nothing once the array has grown to the
// run's high-water mark — the array doubles as the event free list.
type event struct {
	time int64
	seq  uint64

	pe  int32 // processing element concerned (evStep, evKick, deliveries)
	ctx int32 // context id
	src int32 // requesting processing element (evChanReq)

	// Channel request payload.
	ch  int32
	val int32

	kind eventKind
	op   chanOp
}

// eventQueue is a deterministic min-heap ordered by (time, seq), laid out
// as an index-based 4-ary heap over a flat event array. Compared to the
// previous container/heap implementation it removes the two interface
// dispatches and the interface-boxing allocation per operation as well as
// the per-event *event allocation, and the shallower 4-ary tree roughly
// halves the sift depth at the queue sizes a simulation reaches.
type eventQueue struct {
	a []event
}

func (q *eventQueue) len() int { return len(q.a) }

// horizonInf is the batching horizon of an empty queue: no scheduled event
// can ever preempt a straight-line run.
const horizonInf = int64(math.MaxInt64)

// peekTime reports the earliest scheduled time without popping, or
// horizonInf when the queue is empty. This is the next-event horizon the
// step-batching loop runs against.
func (q *eventQueue) peekTime() int64 {
	if len(q.a) == 0 {
		return horizonInf
	}
	return q.a[0].time
}

// less orders events by (time, seq); seq breaks ties in schedule order,
// which is what makes the simulation deterministic.
func (q *eventQueue) less(i, j int) bool {
	if q.a[i].time != q.a[j].time {
		return q.a[i].time < q.a[j].time
	}
	return q.a[i].seq < q.a[j].seq
}

// push inserts e, sifting it up toward the root.
func (q *eventQueue) push(e event) {
	q.a = append(q.a, e)
	i := len(q.a) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !q.less(i, p) {
			break
		}
		q.a[i], q.a[p] = q.a[p], q.a[i]
		i = p
	}
}

// pop removes and returns the minimum event.
func (q *eventQueue) pop() event {
	top := q.a[0]
	n := len(q.a) - 1
	q.a[0] = q.a[n]
	q.a = q.a[:n]
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		least := first
		last := min(first+4, n)
		for c := first + 1; c < last; c++ {
			if q.less(c, least) {
				least = c
			}
		}
		if !q.less(least, i) {
			break
		}
		q.a[i], q.a[least] = q.a[least], q.a[i]
		i = least
	}
	return top
}
