// Package expt implements the quantum experiments the paper runs to
// validate QuMA (Section 8): AllXY, T1, T2 Ramsey, T2 Echo, and
// randomized benchmarking — each as a program generator that emits the
// combined classical + QuMIS assembly executed by the machine, plus the
// analysis that turns averaged measurement results into the paper's
// figures.
package expt

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"quma/internal/qphys"
)

// Clifford is one element of the single-qubit Clifford group: its unitary
// and a decomposition into Table 1 primitive pulses (time order).
type Clifford struct {
	// Index is the element's position in the canonical enumeration.
	Index int
	// Pulses is the primitive-pulse decomposition in time order.
	Pulses []string
	// U is the unitary (up to global phase).
	U qphys.Matrix
}

// cliffordGroup is the lazily built group table; cliffordOnce guards the
// build so parallel sweep workers can share it. cliffordMul and
// cliffordInv are its multiplication and inverse tables, by element
// index and up to global phase: cliffordMul[a][b] is the element of
// U_a·U_b (b applied first, then a), and cliffordInv[a] that of U_a†.
var (
	cliffordGroup []Clifford
	cliffordMul   [24][24]uint8
	cliffordInv   [24]uint8
	cliffordOnce  sync.Once
)

// primitiveGate returns the unitary for a Table 1 pulse name.
func primitiveGate(name string) qphys.Matrix {
	switch name {
	case "I":
		return qphys.Identity(2)
	case "X180":
		return qphys.RX(math.Pi)
	case "X90":
		return qphys.RX(math.Pi / 2)
	case "Xm90":
		return qphys.RX(-math.Pi / 2)
	case "Y180":
		return qphys.RY(math.Pi)
	case "Y90":
		return qphys.RY(math.Pi / 2)
	case "Ym90":
		return qphys.RY(-math.Pi / 2)
	}
	panic(fmt.Sprintf("expt: unknown primitive %q", name))
}

// CliffordGroup returns the 24 single-qubit Cliffords, each with a
// shortest decomposition into the Table 1 pulse set. The table is built
// once by breadth-first closure over the generators.
func CliffordGroup() []Clifford {
	cliffordOnce.Do(buildCliffordGroup)
	return cliffordGroup
}

func buildCliffordGroup() {
	gens := []string{"X90", "Y90", "Xm90", "Ym90", "X180", "Y180"}
	type node struct {
		pulses []string
		u      qphys.Matrix
	}
	frontier := []node{{pulses: nil, u: qphys.Identity(2)}}
	var group []node
	seen := func(u qphys.Matrix) bool {
		for _, g := range group {
			if g.u.EqualUpToGlobalPhase(u, 1e-9) {
				return true
			}
		}
		return false
	}
	for len(group) < 24 && len(frontier) > 0 {
		var next []node
		for _, n := range frontier {
			if seen(n.u) {
				continue
			}
			group = append(group, n)
			for _, g := range gens {
				u2 := primitiveGate(g).Mul(n.u) // apply g after n
				pulses := append(append([]string{}, n.pulses...), g)
				next = append(next, node{pulses: pulses, u: u2})
			}
		}
		frontier = next
	}
	if len(group) != 24 {
		panic(fmt.Sprintf("expt: Clifford closure found %d elements, want 24", len(group)))
	}
	cliffordGroup = make([]Clifford, 24)
	for i, g := range group {
		pulses := g.pulses
		if len(pulses) == 0 {
			pulses = []string{"I"}
		}
		cliffordGroup[i] = Clifford{Index: i, Pulses: pulses, U: g.u}
	}
	index := func(u qphys.Matrix) uint8 {
		for i, g := range group {
			if g.u.EqualUpToGlobalPhase(u, 1e-9) {
				return uint8(i)
			}
		}
		panic("expt: Clifford group is not closed")
	}
	for a, ga := range group {
		for b, gb := range group {
			cliffordMul[a][b] = index(ga.u.Mul(gb.u))
		}
		cliffordInv[a] = index(ga.u.Dagger())
	}
}

// RandomCliffordSequence draws m uniformly random Cliffords plus the
// recovery element that returns the qubit to |0⟩, and returns the full
// pulse list (time order) and the total element count including recovery.
// The running product is tracked as a group index through the
// multiplication table, so it is exact at any length.
func RandomCliffordSequence(m int, rng *rand.Rand) (pulses []string, elements []Clifford) {
	group := CliffordGroup()
	elements = make([]Clifford, 0, max(m, 0)+1)
	total := 0 // the identity: the closure starts from it
	npulses := 0
	for i := 0; i < m; i++ {
		c := group[rng.Intn(len(group))]
		elements = append(elements, c)
		npulses += len(c.Pulses)
		total = int(cliffordMul[c.Index][total])
	}
	rec := group[cliffordInv[total]]
	elements = append(elements, rec)
	pulses = make([]string, 0, npulses+len(rec.Pulses))
	for _, c := range elements {
		pulses = append(pulses, c.Pulses...)
	}
	return pulses, elements
}

// AvgPulsesPerClifford returns the mean primitive-pulse count over the
// group — a figure of merit for the decomposition (≈ 1.875 for the
// standard generator set... the exact value depends on the closure
// order; it is reported, not asserted).
func AvgPulsesPerClifford() float64 {
	total := 0
	for _, c := range CliffordGroup() {
		total += len(c.Pulses)
	}
	return float64(total) / 24
}
