package psim

import "uvllm/internal/formal"

// op is one compiled AND gate: vals[out] = (vals[a]^aNeg) & (vals[b]^bNeg).
// Negations are pre-expanded to full-word XOR masks so the sweep loop is
// two loads, two xors, one and, one store per gate — no branches.
type op struct {
	a, b       uint32
	aNeg, bNeg uint64
	out        uint32
}

// Machine is a word-level evaluator for a formal.AIG: each node holds one
// uint64, one bit per lane, so a single sweep evaluates the graph for 64
// independent assignments at once.
type Machine struct {
	vals []uint64
	ops  []op
}

// NewMachine compiles g into a straight-line op list. AIG nodes are
// created in topological order, so the list in node order is a complete
// evaluation order. The machine snapshots the graph's current size; nodes
// added to g afterwards are not evaluated.
func NewMachine(g *formal.AIG) *Machine {
	n := g.NumNodes()
	m := &Machine{vals: make([]uint64, n)}
	for i := uint32(1); i < uint32(n); i++ {
		a, b, isAnd := g.Fanins(i)
		if !isAnd {
			continue
		}
		m.ops = append(m.ops, op{
			a: a.Node(), b: b.Node(),
			aNeg: negMask(a), bNeg: negMask(b),
			out: i,
		})
	}
	return m
}

// negMask expands a literal's negation bit to a full-word XOR mask.
func negMask(l formal.Lit) uint64 {
	if l.Neg() {
		return ^uint64(0)
	}
	return 0
}

// Ops returns the number of compiled AND gates (the per-sweep work).
func (m *Machine) Ops() int { return len(m.ops) }

// SetVar assigns a 64-lane word to an input variable literal before a
// sweep. Negated literals store the complement so a later Word read
// through any polarity is consistent.
func (m *Machine) SetVar(l formal.Lit, w uint64) {
	m.vals[l.Node()] = w ^ negMask(l)
}

// Sweep evaluates every AND gate once in topological order. Input
// variables keep whatever SetVar last stored (unset variables read zero);
// the constant node reads zero by construction.
func (m *Machine) Sweep() {
	vals := m.vals
	for _, o := range m.ops {
		vals[o.out] = (vals[o.a] ^ o.aNeg) & (vals[o.b] ^ o.bNeg)
	}
}

// Word reads a literal's 64-lane word after a sweep.
func (m *Machine) Word(l formal.Lit) uint64 {
	return m.vals[l.Node()] ^ negMask(l)
}
