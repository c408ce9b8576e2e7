// Package timing implements QuMA's queue-based event timing control — the
// mechanism that decouples non-deterministic instruction execution from
// the deterministic, cycle-accurate triggering of quantum operations
// (paper Section 5.2).
//
// The timing control unit consists of:
//
//   - a timing queue of (interval, label) pairs designating time points on
//     the deterministic timeline TD (intervals are in 5 ns cycles,
//     relative to the previous time point);
//   - one event queue per event class (the AllXY experiment uses three:
//     pulse, measurement-pulse generation, measurement discrimination),
//     each holding (event, label) pairs;
//   - a timing controller that owns the TD counter: when the counter
//     reaches the next interval it broadcasts the associated label to all
//     event queues, and every front entry whose label matches fires.
//
// The controller here is event-driven rather than ticked: it jumps TD
// directly between time points, so a 40000-cycle initialization wait costs
// the same as a 4-cycle gate gap. The observable behaviour — which events
// fire at which TD — is identical to a per-cycle implementation, and the
// benchmark BenchmarkTimingController demonstrates the O(events) cost.
package timing

import (
	"fmt"

	"quma/internal/clock"
)

// Label identifies a time point on the deterministic timeline. Labels are
// assigned in program order by the quantum microinstruction buffer and are
// strictly increasing.
type Label uint64

// TimePoint is one timing-queue entry: the interval in cycles since the
// previous time point, and the label broadcast when it is reached.
type TimePoint struct {
	Interval clock.Cycle
	Label    Label
}

// TimingQueue buffers time points in FIFO order.
type TimingQueue struct {
	entries []TimePoint
	head    int
}

// Push appends a time point.
func (q *TimingQueue) Push(tp TimePoint) { q.entries = append(q.entries, tp) }

// Len returns the number of buffered time points.
func (q *TimingQueue) Len() int { return len(q.entries) - q.head }

// Peek returns the front time point without removing it.
func (q *TimingQueue) Peek() (TimePoint, bool) {
	if q.Len() == 0 {
		return TimePoint{}, false
	}
	return q.entries[q.head], true
}

// Pop removes and returns the front time point.
func (q *TimingQueue) Pop() (TimePoint, bool) {
	tp, ok := q.Peek()
	if !ok {
		return TimePoint{}, false
	}
	q.head++
	q.entries, q.head = compact(q.entries, q.head)
	return tp, true
}

// Reset empties the queue, keeping its buffer.
func (q *TimingQueue) Reset() { q.entries, q.head = q.entries[:0], 0 }

// compact reclaims the consumed prefix of a FIFO buffer: an emptied
// queue rewinds to the start of its buffer, and a mostly consumed one
// moves its live tail down, so a queue refilled shot after shot reuses
// one buffer instead of growing.
func compact[T any](entries []T, head int) ([]T, int) {
	switch {
	case head == len(entries):
		return entries[:0], 0
	case head > 64 && head*2 > len(entries):
		return append(entries[:0], entries[head:]...), 0
	}
	return entries, head
}

// Snapshot returns the queued time points front-first (for the paper's
// Tables 2–4 reproduction).
func (q *TimingQueue) Snapshot() []TimePoint {
	out := make([]TimePoint, q.Len())
	copy(out, q.entries[q.head:])
	return out
}

// queue is the controller-facing side of an event queue.
type queue interface {
	name() string
	frontLabel() (Label, bool)
	fireFront(td clock.Cycle)
	reset()
}

// EventQueue buffers events of type E, each tagged with the label of the
// time point at which it must fire. OnFire is invoked from the controller
// with the event and the deterministic time TD at which it fired.
type EventQueue[E any] struct {
	Name   string
	OnFire func(ev E, td clock.Cycle)

	entries []labeled[E]
	head    int
}

type labeled[E any] struct {
	ev    E
	label Label
}

// NewEventQueue returns an event queue with the given name and fire
// callback. A nil callback discards fired events (useful in tests).
func NewEventQueue[E any](name string, onFire func(ev E, td clock.Cycle)) *EventQueue[E] {
	return &EventQueue[E]{Name: name, OnFire: onFire}
}

// Push appends an event scheduled for the time point with the given label.
func (q *EventQueue[E]) Push(ev E, label Label) {
	q.entries = append(q.entries, labeled[E]{ev: ev, label: label})
}

// Len returns the number of pending events.
func (q *EventQueue[E]) Len() int { return len(q.entries) - q.head }

// Peek returns the front event and its label.
func (q *EventQueue[E]) Peek() (E, Label, bool) {
	if q.Len() == 0 {
		var zero E
		return zero, 0, false
	}
	e := q.entries[q.head]
	return e.ev, e.label, true
}

// Snapshot returns pending (event, label) pairs front-first.
func (q *EventQueue[E]) Snapshot() []struct {
	Event E
	Label Label
} {
	out := make([]struct {
		Event E
		Label Label
	}, 0, q.Len())
	for _, e := range q.entries[q.head:] {
		out = append(out, struct {
			Event E
			Label Label
		}{e.ev, e.label})
	}
	return out
}

func (q *EventQueue[E]) name() string { return q.Name }

func (q *EventQueue[E]) frontLabel() (Label, bool) {
	if q.Len() == 0 {
		return 0, false
	}
	return q.entries[q.head].label, true
}

func (q *EventQueue[E]) reset() { q.entries, q.head = q.entries[:0], 0 }

func (q *EventQueue[E]) fireFront(td clock.Cycle) {
	e := q.entries[q.head]
	q.head++
	q.entries, q.head = compact(q.entries, q.head)
	if q.OnFire != nil {
		q.OnFire(e.ev, td)
	}
}

// Controller is the timing controller: it owns the deterministic-domain
// clock TD and drains the timing queue, broadcasting labels to the
// registered event queues.
type Controller struct {
	TQ      TimingQueue
	queues  []queue
	td      clock.Cycle
	started bool
}

// NewController returns a stopped controller with an empty timing queue.
func NewController() *Controller { return &Controller{} }

// Register attaches an event queue to the label broadcast. Queues fire in
// registration order within a time point.
func (c *Controller) Register(q queue) {
	c.queues = append(c.queues, q)
}

// Start begins the deterministic timeline at TD = 0. On hardware this
// corresponds to the start instruction or an external trigger.
func (c *Controller) Start() {
	c.td = 0
	c.started = true
}

// Reset stops the timeline at TD = 0 and empties the timing queue and
// every registered event queue, keeping their buffers and registrations:
// the state of a freshly built controller with the same queues
// registered.
func (c *Controller) Reset() {
	c.TQ.Reset()
	for _, q := range c.queues {
		q.reset()
	}
	c.td = 0
	c.started = false
}

// Started reports whether the timeline is running.
func (c *Controller) Started() bool { return c.started }

// TD returns the current deterministic-domain time in cycles.
func (c *Controller) TD() clock.Cycle { return c.td }

// Step advances to the next time point: TD jumps by the front interval,
// the label is broadcast, and every front event with a matching label
// fires (in queue-registration order; consecutive matching entries within
// one queue all fire, which is how the MPG and MD events of a measurement
// share one time point).
//
// Step returns false with a nil error when the timing queue is empty —
// the caller may push more time points and continue, which is how
// feedback-dependent schedules are played out.
//
// A front event whose label is *smaller* than the broadcast label can
// never fire again; this indicates out-of-order queue filling and is
// reported as an error rather than silently dropped.
func (c *Controller) Step() (bool, error) {
	if !c.started {
		return false, fmt.Errorf("timing: controller not started")
	}
	tp, ok := c.TQ.Pop()
	if !ok {
		return false, nil
	}
	c.td += tp.Interval
	for _, q := range c.queues {
		for {
			fl, ok := q.frontLabel()
			if !ok {
				break
			}
			if fl < tp.Label {
				return false, fmt.Errorf("timing: queue %s front label %d already passed (broadcast %d at TD=%d)",
					q.name(), fl, tp.Label, c.td)
			}
			if fl != tp.Label {
				break
			}
			q.fireFront(c.td)
		}
	}
	return true, nil
}

// Drain steps until the timing queue is empty, returning the number of
// time points processed.
func (c *Controller) Drain() (int, error) {
	n := 0
	for {
		ok, err := c.Step()
		if err != nil {
			return n, err
		}
		if !ok {
			return n, nil
		}
		n++
	}
}

// PendingEvents returns the total number of events still waiting across
// all registered queues.
func (c *Controller) PendingEvents() int {
	n := 0
	for _, q := range c.queues {
		if eq, ok := q.(interface{ Len() int }); ok {
			n += eq.Len()
		}
	}
	return n
}
