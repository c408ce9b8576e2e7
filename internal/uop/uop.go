// Package uop implements QuMA's micro-operation unit: the last decoding
// stage before the analog-digital interface, which expands each
// micro-operation into a sequence of codeword triggers with predefined
// relative timing (paper Section 5.3.2).
//
// For every micro-operation uOp_i the unit stores a sequence
//
//	Seq_i : ([0, cw0]; [Δt1, cw1]; [Δt2, cw2]; …)
//
// where Δt_j is the interval in cycles between codewords cw_{j-1} and
// cw_j. Triggering uOp_i at deterministic time T emits cw0 at T+Δ, cw1 at
// T+Δ+Δt1, and so on, where Δ is the unit's fixed processing delay. This
// lets commonly-used operations that are not primitive (the paper's
// example: Z = X·Y up to global phase, SeqZ = ([0,1];[4,4])) be emulated
// locally inside the AWG, reducing traffic between the timing control
// unit and the analog-digital interface.
package uop

import (
	"fmt"
	"sort"

	"quma/internal/awg"
	"quma/internal/clock"
)

// SeqStep is one element of a micro-operation's codeword sequence.
type SeqStep struct {
	// Delta is the interval in cycles after the previous codeword
	// (ignored for the first step, which the paper fixes at 0).
	Delta clock.Cycle
	// CW is the codeword to emit.
	CW awg.Codeword
}

// Sequence is the stored expansion of one micro-operation.
type Sequence []SeqStep

// TotalDuration returns the span in cycles from the first to the last
// codeword trigger of the sequence.
func (s Sequence) TotalDuration() clock.Cycle {
	var d clock.Cycle
	for i, st := range s {
		if i == 0 {
			continue
		}
		d += st.Delta
	}
	return d
}

// Trigger is one codeword emission scheduled at an absolute cycle time.
type Trigger struct {
	CW awg.Codeword
	At clock.Cycle
}

// Unit is a micro-operation unit for one drive channel.
type Unit struct {
	// Delay is the fixed processing latency Δ between receiving a
	// micro-operation and emitting its first codeword.
	Delay clock.Cycle

	seqs map[string]Sequence
	// gen counts definitions (Define, DefinePrimitive) since NewUnit.
	gen uint64
}

// DefaultDelay is the modelled micro-operation unit latency. It is chosen
// as 4 cycles (20 ns) — one full period of the -50 MHz single-sideband
// modulation — so that, like the CTPG's 80 ns delay, it shifts every pulse
// by a whole number of carrier periods and leaves the drive frame
// unrotated. (Any *uniform* delay only rotates the global frame, which is
// unobservable in population measurements, but period alignment keeps the
// simulated unitaries exactly equal to their nominal gates, which the
// tests rely on.)
const DefaultDelay clock.Cycle = 4

// NewUnit returns an empty micro-operation unit with the default delay.
func NewUnit() *Unit {
	return &Unit{Delay: DefaultDelay, seqs: make(map[string]Sequence)}
}

// Define stores (or replaces) the codeword sequence for a micro-operation.
// The first step's Delta must be zero, matching the paper's Seq format.
func (u *Unit) Define(name string, seq Sequence) error {
	if len(seq) == 0 {
		return fmt.Errorf("uop: empty sequence for %q", name)
	}
	if seq[0].Delta != 0 {
		return fmt.Errorf("uop: first step of %q must have Δt=0, got %d", name, seq[0].Delta)
	}
	cp := make(Sequence, len(seq))
	copy(cp, seq)
	u.seqs[name] = cp
	u.gen++
	return nil
}

// DefinePrimitive registers a micro-operation that forwards directly to a
// single codeword — the configuration used in the paper's AllXY run,
// where "the micro-operation unit simply forwards the codewords to the
// wave memory without translation".
func (u *Unit) DefinePrimitive(name string, cw awg.Codeword) {
	u.seqs[name] = Sequence{{Delta: 0, CW: cw}}
	u.gen++
}

// Generation returns the unit's definition generation: a counter that
// every Define and DefinePrimitive call bumps, redefinitions of an
// existing name included. Equal generations of one unit mean no
// definition changed in between; the replay engine keys its memoized
// cold-start shots on it.
func (u *Unit) Generation() uint64 { return u.gen }

// DefineStandardLibrary registers pass-through entries for the whole
// Table 1 pulse library.
func (u *Unit) DefineStandardLibrary() {
	for _, p := range awg.StandardLibrary() {
		u.DefinePrimitive(p.Name, p.Codeword)
	}
}

// Lookup returns the stored sequence for a micro-operation.
func (u *Unit) Lookup(name string) (Sequence, bool) {
	s, ok := u.seqs[name]
	return s, ok
}

// Names returns the defined micro-operation names in sorted order.
func (u *Unit) Names() []string {
	out := make([]string, 0, len(u.seqs))
	for n := range u.seqs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Expand appends the codeword triggers of a micro-operation triggered at
// deterministic time at to dst and returns the extended slice; a caller
// that reuses dst across pulses expands without allocating. On error dst
// is returned unchanged.
func (u *Unit) Expand(dst []Trigger, name string, at clock.Cycle) ([]Trigger, error) {
	seq, ok := u.seqs[name]
	if !ok {
		return dst, fmt.Errorf("uop: unknown micro-operation %q", name)
	}
	t := at + u.Delay
	for i, st := range seq {
		if i > 0 {
			t += st.Delta
		}
		dst = append(dst, Trigger{CW: st.CW, At: t})
	}
	return dst, nil
}

// SeqZ is the paper's worked example: emulating a Z gate as a Y gate
// followed by an X gate (Z = X·Y up to global phase) with the Table 1
// lookup content, Seq_Z : ([0,1];[4,4]).
func SeqZ() Sequence {
	return Sequence{{Delta: 0, CW: 1}, {Delta: 4, CW: 4}}
}
