// Package awg models the arbitrary-waveform-generation hardware of the
// control box: the codeword-triggered pulse generation unit (CTPG) that is
// QuMA's analog-digital interface for qubit drive, and — as the baseline
// QuMA is compared against — a conventional whole-sequence waveform AWG.
//
// The CTPG stores a small lookup table of calibrated primitive pulses,
// indexed by codeword (the paper's Table 1). At runtime it receives only
// codeword triggers; each trigger plays the corresponding waveform after a
// fixed, short delay (80 ns in the paper's implementation). Because the
// delay is fixed, flexible pulse combination reduces to issuing codewords
// at precise times.
package awg

import (
	"fmt"
	"math"
	"sort"

	"quma/internal/clock"
	"quma/internal/pulse"
)

// Codeword indexes an entry of the CTPG lookup table.
type Codeword uint32

// FixedDelayCycles is the paper's measured trigger→output latency of the
// implemented CTPG: 80 ns = 16 control cycles.
const FixedDelayCycles clock.Cycle = 16

// Playback records one pulse emitted by the CTPG: which codeword fired,
// the waveform played, and the absolute sample time at which the first
// sample left the DAC. The simulated chip consumes these records.
type Playback struct {
	Codeword Codeword
	Wave     pulse.Waveform
	Start    clock.Sample
}

// CTPG is a codeword-triggered pulse generation unit for one drive channel.
type CTPG struct {
	// Delay is the fixed trigger→output latency in cycles.
	Delay clock.Cycle
	// SSBHz is the single-sideband modulation frequency the stored
	// waveforms were synthesized with.
	SSBHz float64
	// DACBits is the vertical resolution applied to uploaded waveforms.
	DACBits int

	lut       map[Codeword]lutEntry
	playbacks []Playback
}

type lutEntry struct {
	name string
	wave pulse.Waveform
}

// NewCTPG returns a CTPG with the paper's fixed delay, -50 MHz SSB and
// 14-bit DACs, and an empty lookup table.
func NewCTPG() *CTPG {
	return &CTPG{
		Delay:   FixedDelayCycles,
		SSBHz:   pulse.DefaultSSBHz,
		DACBits: 14,
		lut:     make(map[Codeword]lutEntry),
	}
}

// Upload stores a calibrated waveform under the given codeword, quantizing
// it to the DAC resolution. Re-uploading a codeword replaces the entry,
// which is how recalibration works on the real device.
func (c *CTPG) Upload(cw Codeword, name string, w pulse.Waveform) error {
	if err := CheckFullScale(name, w); err != nil {
		return err
	}
	c.lut[cw] = lutEntry{name: name, wave: pulse.Quantize(w, c.DACBits)}
	return nil
}

// CheckFullScale reports whether waveform w, named name, fits the DAC
// full scale: the check Upload applies, so a caller can reject a
// waveform before any machine is built.
func CheckFullScale(name string, w pulse.Waveform) error {
	if w.MaxAbs() > 1 {
		return fmt.Errorf("awg: waveform %q exceeds DAC full scale (max %.3f)", name, w.MaxAbs())
	}
	return nil
}

// Lookup returns the waveform and name stored under cw.
func (c *CTPG) Lookup(cw Codeword) (pulse.Waveform, string, bool) {
	e, ok := c.lut[cw]
	return e.wave, e.name, ok
}

// Codewords returns the populated codewords in ascending order.
func (c *CTPG) Codewords() []Codeword {
	out := make([]Codeword, 0, len(c.lut))
	for cw := range c.lut {
		out = append(out, cw)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Trigger fires codeword cw at control-cycle time at. The pulse leaves the
// DAC Delay cycles later. Unknown codewords are an error: on hardware they
// would play garbage.
func (c *CTPG) Trigger(cw Codeword, at clock.Cycle) (Playback, error) {
	e, ok := c.lut[cw]
	if !ok {
		return Playback{}, fmt.Errorf("awg: codeword %d not in lookup table", cw)
	}
	pb := Playback{Codeword: cw, Wave: e.wave, Start: (at + c.Delay).Samples()}
	c.playbacks = append(c.playbacks, pb)
	return pb, nil
}

// Playbacks returns every pulse played so far, in trigger order.
func (c *CTPG) Playbacks() []Playback { return c.playbacks }

// ResetPlaybacks clears the playback log (e.g. between experiment rounds).
func (c *CTPG) ResetPlaybacks() { c.playbacks = c.playbacks[:0] }

// MemoryBytes returns the total lookup-table storage at the given
// bits-per-sample accounting (the paper uses 12-bit samples for its
// 420-byte AllXY figure).
func (c *CTPG) MemoryBytes(bitsPerSample int) int {
	total := 0
	for _, e := range c.lut {
		total += e.wave.MemoryBytes(bitsPerSample)
	}
	return total
}

// StandardPulse describes one calibrated primitive operation: a rotation
// by Theta about the equatorial axis at angle Phi. Negative angles are
// realized by offsetting the drive phase by π.
type StandardPulse struct {
	Codeword Codeword
	Name     string
	Phi      float64 // drive phase: 0 = x axis, π/2 = y axis
	Theta    float64 // rotation angle, radians (≥ 0 after phase folding)
}

// StandardDurationSamples is the paper's typical single-qubit pulse
// duration: 20 ns.
const StandardDurationSamples = 20

// StandardSigma is the Gaussian width (in samples) of the standard pulse.
const StandardSigma = 4.0

// StandardLibrary returns the paper's Table 1 lookup-table content: the
// seven primitive operations sufficient for AllXY.
//
//	CW 0: I    CW 1: Rx(π)   CW 2: Rx(π/2)  CW 3: Rx(-π/2)
//	CW 4: Ry(π) CW 5: Ry(π/2) CW 6: Ry(-π/2)
func StandardLibrary() []StandardPulse {
	return []StandardPulse{
		{0, "I", 0, 0},
		{1, "X180", 0, math.Pi},
		{2, "X90", 0, math.Pi / 2},
		{3, "Xm90", math.Pi, math.Pi / 2},
		{4, "Y180", math.Pi / 2, math.Pi},
		{5, "Y90", math.Pi / 2, math.Pi / 2},
		{6, "Ym90", 3 * math.Pi / 2, math.Pi / 2},
	}
}

// SynthesizeStandard produces the waveform for a standard pulse with an
// optional fractional amplitude miscalibration ε (every rotation angle is
// scaled by 1+ε), the knob used to demonstrate AllXY error signatures.
func SynthesizeStandard(p StandardPulse, ssbHz, amplitudeError float64) pulse.Waveform {
	if p.Theta == 0 {
		// The identity is an explicit zero-amplitude pulse occupying the
		// standard duration, so timing bookkeeping is identical to real
		// pulses.
		return pulse.Synthesize(make([]float64, StandardDurationSamples), ssbHz, 0)
	}
	theta := p.Theta * (1 + amplitudeError)
	amp := pulse.CalibratedGaussianAmp(StandardDurationSamples, StandardSigma, theta)
	env := pulse.GaussianEnvelope(StandardDurationSamples, StandardSigma, amp)
	return pulse.Synthesize(env, ssbHz, p.Phi)
}

// UploadStandardLibrary fills the CTPG with the Table 1 content.
func (c *CTPG) UploadStandardLibrary(amplitudeError float64) error {
	for _, p := range StandardLibrary() {
		if err := c.Upload(p.Codeword, p.Name, SynthesizeStandard(p, c.SSBHz, amplitudeError)); err != nil {
			return err
		}
	}
	return nil
}
