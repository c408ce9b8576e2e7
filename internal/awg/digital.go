package awg

import (
	"fmt"
	"sort"

	"quma/internal/clock"
)

// NumDigitalOutputs is the output count of the simulated master
// controller. The paper's box has 8; the simulation matches the widened
// 16-qubit instruction-set address so trajectory-backend registers stay
// measurable.
const NumDigitalOutputs = 16

// DigitalOutputUnit models the master controller's digital output stage
// (paper §7.1): it converts a measurement-operation tuple (QAddr, D)
// into a logic '1' of duration D cycles on each of the digital outputs
// selected by QAddr. On the real box these outputs gate the
// pulse-modulated microwave sources that produce measurement pulses.
type DigitalOutputUnit struct {
	intervals [NumDigitalOutputs][]HighInterval
}

// HighInterval is one '1' period on a digital output.
type HighInterval struct {
	Start clock.Cycle
	End   clock.Cycle // exclusive
}

// NewDigitalOutputUnit returns a unit with all outputs low.
func NewDigitalOutputUnit() *DigitalOutputUnit { return &DigitalOutputUnit{} }

// Trigger raises the outputs in mask for duration cycles starting at
// cycle at. mask bit q drives output q.
func (d *DigitalOutputUnit) Trigger(mask uint16, duration, at clock.Cycle) error {
	if duration == 0 {
		return fmt.Errorf("awg: digital trigger needs positive duration")
	}
	if mask == 0 {
		return fmt.Errorf("awg: digital trigger needs a non-empty mask")
	}
	for ch := 0; ch < NumDigitalOutputs; ch++ {
		if mask&(1<<ch) != 0 {
			d.intervals[ch] = append(d.intervals[ch], HighInterval{Start: at, End: at + duration})
		}
	}
	return nil
}

// High reports whether output ch is '1' at cycle t.
func (d *DigitalOutputUnit) High(ch int, t clock.Cycle) bool {
	if ch < 0 || ch >= NumDigitalOutputs {
		return false
	}
	for _, iv := range d.intervals[ch] {
		if t >= iv.Start && t < iv.End {
			return true
		}
	}
	return false
}

// Intervals returns output ch's '1' periods merged and sorted; abutting
// or overlapping triggers coalesce, as the physical OR of levels would.
func (d *DigitalOutputUnit) Intervals(ch int) []HighInterval {
	if ch < 0 || ch >= NumDigitalOutputs || len(d.intervals[ch]) == 0 {
		return nil
	}
	ivs := append([]HighInterval{}, d.intervals[ch]...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].Start < ivs[j].Start })
	out := []HighInterval{ivs[0]}
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.Start <= last.End {
			if iv.End > last.End {
				last.End = iv.End
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// TotalHighCycles returns the summed '1' time on output ch.
func (d *DigitalOutputUnit) TotalHighCycles(ch int) clock.Cycle {
	var total clock.Cycle
	for _, iv := range d.Intervals(ch) {
		total += iv.End - iv.Start
	}
	return total
}

// Reset returns all outputs to idle with no history, keeping the
// per-output buffers for reuse.
func (d *DigitalOutputUnit) Reset() {
	for ch := range d.intervals {
		d.intervals[ch] = d.intervals[ch][:0]
	}
}
