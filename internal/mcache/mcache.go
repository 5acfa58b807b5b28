// Package mcache implements the dedicated message-handling hardware of
// §5.5: a message processor's channel cache. Each cache entry tracks the
// rendezvous state of one channel — empty, sender waiting (value present),
// or receiver waiting — and the send, receive and fetch-and-φ operations
// drive the state transitions of Tables 5.3, 5.4 and 6.7.
//
// The cache has a finite number of entries. Entries holding a blocked party
// are evicted to backing memory (at a cost) when the cache overflows, and
// reloaded on the next access; entries in the empty state are dropped for
// free. The finite per-processor cache is one of the mechanisms behind the
// multiprocessor's super-linear speed-up: aggregate cache capacity grows
// with the number of processing elements, so channel operations miss less.
package mcache

import "fmt"

// ContextRef identifies a blocked context: the processing element hosting
// it and its context identifier.
type ContextRef struct {
	PE  int
	Ctx int
}

// State is the externally visible state of a channel entry.
type State int

const (
	// Empty: no operation pending on the channel.
	Empty State = iota
	// SenderWait: one or more senders are blocked with their values.
	SenderWait
	// ReceiverWait: one or more receivers are blocked.
	ReceiverWait
	// ValueCell: the entry is used as a fetch-and-φ synchronization word
	// rather than a rendezvous channel.
	ValueCell
)

func (s State) String() string {
	switch s {
	case Empty:
		return "empty"
	case SenderWait:
		return "sender-wait"
	case ReceiverWait:
		return "receiver-wait"
	case ValueCell:
		return "value-cell"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

type waitingSend struct {
	val    int32
	sender ContextRef
}

type entry struct {
	channel   int32
	senders   []waitingSend // FIFO of blocked senders with their values
	receivers []ContextRef  // FIFO of blocked receivers
	cellValue int32         // fetch-and-φ storage
	isCell    bool
	resident  bool // true while cached; false once spilled to backing memory
	lastUse   uint64
}

func (e *entry) state() State {
	switch {
	case e.isCell:
		return ValueCell
	case len(e.senders) > 0:
		return SenderWait
	case len(e.receivers) > 0:
		return ReceiverWait
	default:
		return Empty
	}
}

// Stats counts cache behaviour for the Chapter 6 statistics tables.
type Stats struct {
	Sends      int64
	Receives   int64
	FetchPhis  int64
	Hits       int64
	Misses     int64 // entry reloaded from backing memory
	Evictions  int64 // occupied entry written back to memory
	Rendezvous int64 // completed send/receive pairs
}

// Cache is one message processor's channel cache.
//
// Resident entries live in a flat slice so the eviction scan walks the
// slice instead of iterating a map, and entries dropped in the empty state
// are recycled through a free list, so steady-state channel traffic
// allocates nothing. One map covers both cached and spilled entries — an
// eviction to backing memory and the later reload are flag flips, not map
// writes — and the victim choice is a pure minimum over (occupancy,
// recency) with unique recency stamps, so it does not depend on slice
// order.
type Cache struct {
	capacity int
	byChan   map[int32]*entry // every known channel, resident or spilled
	ents     []*entry         // resident entries, unordered
	free     []*entry         // empty entries recycled after eviction
	done     Completion
	clock    uint64
	Stats    Stats
}

// preallocEntries caps the up-front sizing of a cache's map and slice.
// Every processing element builds its own cache, so sizing by a large
// capacity would charge that capacity times the machine size before the
// first message; beyond this many entries the structures grow with use.
const preallocEntries = 256

// New builds a cache with the given number of entries (at least one).
func New(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	hint := min(capacity, preallocEntries)
	return &Cache{
		capacity: capacity,
		byChan:   make(map[int32]*entry, hint),
		ents:     make([]*entry, 0, hint),
	}
}

// lookup finds or creates the entry for a channel, charging a miss when it
// must be reloaded from (or first created in) backing memory, and evicting
// the least recently used occupied entry on overflow. It reports whether
// the access missed the cache.
func (c *Cache) lookup(ch int32) (*entry, bool) {
	c.clock++
	e, known := c.byChan[ch]
	if known && e.resident {
		e.lastUse = c.clock
		c.Stats.Hits++
		return e, false
	}
	c.Stats.Misses++
	if !known {
		if n := len(c.free); n > 0 {
			e = c.free[n-1]
			c.free = c.free[:n-1]
			e.channel = ch
		} else {
			e = &entry{channel: ch}
		}
		c.byChan[ch] = e
	}
	e.lastUse = c.clock
	c.install(e)
	return e, true
}

func (c *Cache) install(e *entry) {
	if len(c.ents) >= c.capacity {
		c.evictOne()
	}
	e.resident = true
	c.ents = append(c.ents, e)
}

// evictOne removes the least recently used entry, preferring free (empty)
// entries; occupied entries are written back to memory at eviction cost.
// Recency stamps are unique, so the choice is deterministic.
func (c *Cache) evictOne() {
	if len(c.ents) == 0 {
		return
	}
	vi := 0
	victim := c.ents[0]
	victimEmpty := victim.state() == Empty
	for i := 1; i < len(c.ents); i++ {
		e := c.ents[i]
		isEmpty := e.state() == Empty
		switch {
		case isEmpty != victimEmpty:
			if isEmpty {
				vi, victim, victimEmpty = i, e, true
			}
		case e.lastUse < victim.lastUse:
			vi, victim = i, e
		}
	}
	last := len(c.ents) - 1
	c.ents[vi] = c.ents[last]
	c.ents[last] = nil
	c.ents = c.ents[:last]
	victim.resident = false
	if victimEmpty {
		delete(c.byChan, victim.channel)
		victim.cellValue = 0
		victim.isCell = false
		c.free = append(c.free, victim)
	} else {
		c.Stats.Evictions++
	}
}

// Completion describes a finished rendezvous: the two parties to unblock
// and the transferred value. The pointer returned by Send and Recv refers
// to per-cache scratch storage and is valid only until the next operation
// on the same cache.
type Completion struct {
	Value    int32
	Sender   ContextRef
	Receiver ContextRef
}

// Send performs the message-cache send transition: if a receiver is
// waiting, the rendezvous completes; otherwise the sender blocks with its
// value. The boolean reports whether the access missed the cache.
func (c *Cache) Send(ch, val int32, sender ContextRef) (done *Completion, missed bool, err error) {
	c.Stats.Sends++
	e, missed := c.lookup(ch)
	if e.isCell {
		return nil, missed, fmt.Errorf("mcache: channel %d is a fetch-and-φ cell", ch)
	}
	if n := len(e.receivers); n > 0 {
		r := e.receivers[0]
		copy(e.receivers, e.receivers[1:])
		e.receivers = e.receivers[:n-1]
		c.Stats.Rendezvous++
		c.done = Completion{Value: val, Sender: sender, Receiver: r}
		return &c.done, missed, nil
	}
	e.senders = append(e.senders, waitingSend{val: val, sender: sender})
	return nil, missed, nil
}

// Recv performs the message-cache receive transition: if a sender is
// waiting, the rendezvous completes; otherwise the receiver blocks.
func (c *Cache) Recv(ch int32, receiver ContextRef) (done *Completion, missed bool, err error) {
	c.Stats.Receives++
	e, missed := c.lookup(ch)
	if e.isCell {
		return nil, missed, fmt.Errorf("mcache: channel %d is a fetch-and-φ cell", ch)
	}
	if n := len(e.senders); n > 0 {
		s := e.senders[0]
		copy(e.senders, e.senders[1:])
		e.senders = e.senders[:n-1]
		c.Stats.Rendezvous++
		c.done = Completion{Value: s.val, Sender: s.sender, Receiver: receiver}
		return &c.done, missed, nil
	}
	e.receivers = append(e.receivers, receiver)
	return nil, missed, nil
}

// FetchAndAdd atomically adds delta to the channel's synchronization word
// and returns the previous value (the fetch-and-φ1 operation).
func (c *Cache) FetchAndAdd(ch, delta int32) (old int32, missed bool, err error) {
	c.Stats.FetchPhis++
	e, missed := c.lookup(ch)
	if !e.isCell && e.state() != Empty {
		return 0, missed, fmt.Errorf("mcache: channel %d is in rendezvous use (%v)", ch, e.state())
	}
	e.isCell = true
	old = e.cellValue
	e.cellValue += delta
	return old, missed, nil
}

// FetchAndStore atomically replaces the channel's synchronization word and
// returns the previous value (the fetch-and-φ2 operation).
func (c *Cache) FetchAndStore(ch, val int32) (old int32, missed bool, err error) {
	c.Stats.FetchPhis++
	e, missed := c.lookup(ch)
	if !e.isCell && e.state() != Empty {
		return 0, missed, fmt.Errorf("mcache: channel %d is in rendezvous use (%v)", ch, e.state())
	}
	e.isCell = true
	old = e.cellValue
	e.cellValue = val
	return old, missed, nil
}

// ChannelState reports the externally visible state of a channel without
// disturbing cache statistics or recency (a debugging/verification probe).
func (c *Cache) ChannelState(ch int32) State {
	if e, ok := c.byChan[ch]; ok {
		return e.state()
	}
	return Empty
}

// PendingWaiters reports how many parties are blocked on the channel.
func (c *Cache) PendingWaiters(ch int32) int {
	e, ok := c.byChan[ch]
	if !ok {
		return 0
	}
	return len(e.senders) + len(e.receivers)
}

// Resident reports the number of entries currently held in the cache.
func (c *Cache) Resident() int { return len(c.ents) }
