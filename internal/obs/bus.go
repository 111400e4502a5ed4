package obs

import (
	"sync"
	"time"
)

// Bus defaults.
const (
	// DefaultRetain is the firehose replay ring's capacity: how far back a
	// reconnecting subscriber can resume via Last-Event-ID.
	DefaultRetain = 4096
	// DefaultSubBuffer is a subscriber's channel capacity when SubOptions
	// leaves it zero.
	DefaultSubBuffer = 64
	// traceJobs bounds how many jobs keep a retained trace; traceEvents
	// bounds one job's trace. Beyond traceEvents further non-terminal
	// events are dropped (counted) so the trace always ends at the
	// terminal event, never mid-lifecycle.
	traceJobs   = 2048
	traceEvents = 96
)

// Bus is a process-wide bounded fan-out event bus. Publish assigns each
// event a strictly monotonic sequence number, retains it in a replay ring
// (Last-Event-ID resume) and, for job events, in a per-job trace, then
// offers it to every matching subscriber without blocking: a subscriber
// whose buffer is full loses the event and has the loss counted — slow
// consumers degrade themselves, never the publishers or each other.
type Bus struct {
	mu     sync.Mutex
	seq    uint64
	ring   []Event // circular replay buffer
	start  int     // index of oldest retained event
	count  int     // retained events
	subs   map[*Sub]struct{}
	traces map[string][]Event // job id -> ordered events
	order  []string           // FIFO of job ids for eviction

	published    uint64
	dropped      uint64 // events lost to full subscriber buffers (summed)
	traceDropped uint64 // non-terminal events lost to the per-trace bound
}

// BusStats is the bus's own accounting; the repository benchmark reads
// Published as events per request.
type BusStats struct {
	Published    uint64
	Dropped      uint64
	TraceDropped uint64
	Subscribers  int
	TraceJobs    int
}

// NewBus builds a bus retaining the last retain events for replay
// (<=0 selects DefaultRetain).
func NewBus(retain int) *Bus {
	if retain <= 0 {
		retain = DefaultRetain
	}
	return &Bus{
		ring:   make([]Event, retain),
		subs:   make(map[*Sub]struct{}),
		traces: make(map[string][]Event),
	}
}

// Publish stamps e with the next sequence number and the current time and
// fans it out. It never blocks and returns the stamped event.
func (b *Bus) Publish(e Event) Event {
	b.mu.Lock()
	b.seq++
	e.Seq = b.seq
	e.TS = time.Now()
	b.published++

	// Replay ring.
	if b.count < len(b.ring) {
		b.ring[(b.start+b.count)%len(b.ring)] = e
		b.count++
	} else {
		b.ring[b.start] = e
		b.start = (b.start + 1) % len(b.ring)
	}

	// Per-job trace. A trace is sealed by its first terminal event: later
	// serving events for the same job (repeat cache hits) go to the
	// firehose only, so a replayed trace is exactly one lifecycle.
	if e.Job != "" {
		tr, ok := b.traces[e.Job]
		switch {
		case ok && len(tr) > 0 && tr[len(tr)-1].Terminal:
			// sealed
		case len(tr) >= traceEvents && !e.Terminal:
			b.traceDropped++
		default:
			if !ok {
				if len(b.order) >= traceJobs {
					delete(b.traces, b.order[0])
					b.order = b.order[1:]
				}
				b.order = append(b.order, e.Job)
			}
			b.traces[e.Job] = append(tr, e)
		}
	}

	for s := range b.subs {
		if !s.matches(e) {
			continue
		}
		select {
		case s.ch <- e:
		default:
			s.dropped++
			b.dropped++
		}
	}
	b.mu.Unlock()
	return e
}

// Trace returns a copy of the retained event trace of one job.
func (b *Bus) Trace(job string) []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	tr := b.traces[job]
	out := make([]Event, len(tr))
	copy(out, tr)
	return out
}

// Stats snapshots the bus accounting.
func (b *Bus) Stats() BusStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BusStats{
		Published:    b.published,
		Dropped:      b.dropped,
		TraceDropped: b.traceDropped,
		Subscribers:  len(b.subs),
		TraceJobs:    len(b.traces),
	}
}

// SubOptions filters and sizes a subscription.
type SubOptions struct {
	// Buffer is the channel capacity (0 selects DefaultSubBuffer). Events
	// published while the buffer is full are dropped for this subscriber
	// and counted in Dropped.
	Buffer int
	// Types restricts delivery to the listed event types (empty: all).
	Types []string
	// Job restricts delivery to one job id and, with Replay, seeds the
	// subscription with the job's retained trace.
	Job string
	// Replay seeds the subscription with retained history before live
	// events: the job's trace when Job is set, else the replay ring.
	// Only retained events with Seq > FromSeq are replayed, so a
	// reconnecting consumer resumes where it left off (SSE Last-Event-ID).
	Replay  bool
	FromSeq uint64
}

// Sub is one subscription. Receive from C; Close when done.
type Sub struct {
	bus     *Bus
	ch      chan Event
	types   map[string]bool
	job     string
	dropped uint64
	closed  bool
}

// matches reports whether e passes the subscription's filters. Caller
// holds bus.mu.
func (s *Sub) matches(e Event) bool {
	if s.job != "" && e.Job != s.job {
		return false
	}
	return s.types == nil || s.types[e.Type]
}

// Subscribe registers a subscription. Replayed events are delivered
// in-order ahead of any live event: the seeding happens under the same
// lock that serializes Publish, so there is no gap and no duplication
// between history and the live feed.
func (b *Bus) Subscribe(o SubOptions) *Sub {
	if o.Buffer <= 0 {
		o.Buffer = DefaultSubBuffer
	}
	s := &Sub{bus: b, ch: make(chan Event, o.Buffer), job: o.Job}
	if len(o.Types) > 0 {
		s.types = make(map[string]bool, len(o.Types))
		for _, t := range o.Types {
			if t != "" {
				s.types[t] = true
			}
		}
	}
	b.mu.Lock()
	if o.Replay {
		replay := func(e Event) {
			if e.Seq <= o.FromSeq || !s.matches(e) {
				return
			}
			select {
			case s.ch <- e:
			default:
				s.dropped++
				b.dropped++
			}
		}
		if o.Job != "" {
			for _, e := range b.traces[o.Job] {
				replay(e)
			}
		} else {
			for i := 0; i < b.count; i++ {
				replay(b.ring[(b.start+i)%len(b.ring)])
			}
		}
	}
	b.subs[s] = struct{}{}
	b.mu.Unlock()
	return s
}

// C is the delivery channel. It is closed by Close, never by the bus.
func (s *Sub) C() <-chan Event { return s.ch }

// Dropped returns how many events this subscriber lost to a full buffer.
func (s *Sub) Dropped() uint64 {
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	return s.dropped
}

// Close unregisters the subscription and closes its channel. Safe to call
// once; pending buffered events remain readable until the channel drains.
func (s *Sub) Close() {
	s.bus.mu.Lock()
	if !s.closed {
		s.closed = true
		delete(s.bus.subs, s)
		close(s.ch)
	}
	s.bus.mu.Unlock()
}
