package timing

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"quma/internal/clock"
)

// ticked is a cycle-ticked reference of the timing control unit, for
// differential tests of the event-driven Controller. It advances TD one
// cycle per tick, counting down the front time point's interval; when
// the count expires it broadcasts the label, and every matching front
// event fires, queue by queue in registration order.
//
// The classical-latency rule of the model, stated once: the count runs
// only while a time point is pending. So time points pushed after a
// drain count from the previous time point, classical execution takes
// zero deterministic time, and the timing queue never underruns.
type ticked struct {
	tq      []TimePoint
	queues  [][]labeled[int]
	names   []string
	td      clock.Cycle
	started bool
	log     []firing
}

func newTicked(names ...string) *ticked {
	return &ticked{names: names, queues: make([][]labeled[int], len(names))}
}

func (r *ticked) Start() { r.td, r.started = 0, true }

func (r *ticked) Reset() {
	r.tq = nil
	for i := range r.queues {
		r.queues[i] = nil
	}
	r.td, r.started = 0, false
}

// Step ticks until the front time point's count expires, then
// broadcasts it. An empty timing queue ticks nothing.
func (r *ticked) Step() (bool, error) {
	if !r.started {
		return false, fmt.Errorf("timing: controller not started")
	}
	if len(r.tq) == 0 {
		return false, nil
	}
	tp := r.tq[0]
	for count := tp.Interval; count > 0; count-- {
		r.td++
	}
	r.tq = r.tq[1:]
	if err := r.broadcast(tp.Label); err != nil {
		return false, err
	}
	return true, nil
}

func (r *ticked) broadcast(label Label) error {
	for i, q := range r.queues {
		for len(q) > 0 && q[0].label <= label {
			if q[0].label < label {
				return fmt.Errorf("timing: queue %s front label %d already passed (broadcast %d at TD=%d)",
					r.names[i], q[0].label, label, r.td)
			}
			r.log = append(r.log, firing{queue: r.names[i], ev: fmt.Sprint(q[0].ev), td: r.td})
			q = q[1:]
			r.queues[i] = q
		}
	}
	return nil
}

func (r *ticked) Drain() (int, error) {
	n := 0
	for {
		ok, err := r.Step()
		if err != nil || !ok {
			return n, err
		}
		n++
	}
}

// Operations of FuzzTimingController's byte program: an opcode byte
// (mod opCount), then its arguments.
const (
	opPushTime  = iota // 2 bytes: interval (LE); the label is the next one
	opPushEvent        // 2 bytes: queue, int8 label offset from the last time point's
	opStep
	opDrain
	opReset
	opStart
	opCount
)

// FuzzTimingController runs one interleaved operation sequence on the
// Controller and on the ticked reference: time points with any interval
// (0 included), events whose labels are due, already passed or in the
// future, Step, Drain, Reset, Start, and refills after a drain — the
// feedback path. After every operation both must report the same
// results and errors (the passed-label error included), the same TD
// and pending counts, and the same (queue, event, TD) firing sequence.
//
// The committed corpus holds the paper's Tables 2–4 AllXY fill
// (TestAllXYQueueScenario), zero-interval points with a same-label
// multi-fire, a passed label, and a drain/refill sequence.
func FuzzTimingController(f *testing.F) {
	names := []string{"pulse", "mpg", "md"}
	f.Fuzz(func(t *testing.T, prog []byte) {
		c, qs, log := rig(names...)
		ref := newTicked(names...)
		var lastTP Label
		events := 0
		arg := func(i int) byte {
			if i < len(prog) {
				return prog[i]
			}
			return 0
		}
		for pc := 0; pc < len(prog); {
			op := prog[pc] % opCount
			pc++
			var got, want string
			switch op {
			case opPushTime:
				lastTP++
				tp := TimePoint{Interval: clock.Cycle(binary.LittleEndian.Uint16([]byte{arg(pc), arg(pc + 1)})), Label: lastTP}
				pc += 2
				c.TQ.Push(tp)
				ref.tq = append(ref.tq, tp)
			case opPushEvent:
				q := int(arg(pc)) % len(names)
				label := Label(max(0, int64(lastTP)+int64(int8(arg(pc+1)))))
				pc += 2
				events++
				qs[names[q]].Push(fmt.Sprint(events), label)
				ref.queues[q] = append(ref.queues[q], labeled[int]{ev: events, label: label})
			case opStep:
				ok, err := c.Step()
				got = fmt.Sprint(ok, err)
				ok, err = ref.Step()
				want = fmt.Sprint(ok, err)
			case opDrain:
				n, err := c.Drain()
				got = fmt.Sprint(n, err)
				n, err = ref.Drain()
				want = fmt.Sprint(n, err)
			case opReset:
				c.Reset()
				ref.Reset()
			case opStart:
				c.Start()
				ref.Start()
			}
			if got != want {
				t.Fatalf("op %d at byte %d: controller returned %s, reference %s", op, pc, got, want)
			}
			pending := 0
			for _, q := range ref.queues {
				pending += len(q)
			}
			if c.TD() != ref.td || c.Started() != ref.started || c.TQ.Len() != len(ref.tq) || c.PendingEvents() != pending {
				t.Fatalf("op %d at byte %d: controller TD %d started %v queued %d/%d, reference TD %d started %v queued %d/%d",
					op, pc, c.TD(), c.Started(), c.TQ.Len(), c.PendingEvents(), ref.td, ref.started, len(ref.tq), pending)
			}
			if !slices.Equal(*log, ref.log) {
				t.Fatalf("op %d at byte %d: firings differ\ncontroller %+v\nreference  %+v", op, pc, *log, ref.log)
			}
		}
	})
}
