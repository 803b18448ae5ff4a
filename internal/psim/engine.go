package psim

import (
	"fmt"

	"uvllm/internal/formal"
	"uvllm/internal/sim"
)

// Engine drives up to 64 lanes of one compiled design bit-parallel: the
// architectural state (every arena signal, every memory word) is stored
// bit-sliced — word b of a signal holds bit b of all 64 lanes — and one
// Machine sweep of the design's single-cycle circuit advances every lane
// by one full harness cycle. Stimulus rows arrive lane-sliced and are
// transposed on the way in; recorded waveform rows are transposed back on
// the way out, once per port per cycle.
//
// The protocol is exactly the harness cycle contract (sim.Batch's): apply
// inputs, settle, pulse the clock, record a waveform row with the clock
// low. Lanes are independent simulations; a nil stimulus row masks a lane
// out of a cycle (it neither advances nor records), which is also how
// callers retire short lanes mid-run. On the supported subset
// (formal.NewCircuit succeeds) lanes cannot error: every construct the
// circuit models evaluates totally.
type Engine struct {
	c     *formal.Circuit
	m     *Machine
	prog  *sim.Program
	d     *sim.Design
	clock string
	lanes int

	state [][]uint64   // per signal: vecW(width) bit-sliced words
	mems  [][][]uint64 // per memory signal: depth x width bit-sliced words

	record bool
	waves  []*sim.Waveform
	recIdx []int // arena index per recorded name, Waveform Names() order

	cycle int

	stim     [][]uint64 // scratch: per free input, width stimulus words
	applyM   []uint64   // scratch: per free input, lanes applying this cycle
	inNames  map[string]int
	laneRows [][]uint64 // scratch: per lane, one row in waveform name order
}

// NewEngine builds a bit-parallel engine for 1..64 lanes of p under the
// given clock name (taken literally; "" selects the combinational
// protocol). It returns formal.ErrUnsupported-wrapped errors for designs
// outside the bit-blastable subset — the caller's cue to fall back to
// sim.Batch.
func NewEngine(p *sim.Program, lanes int, clock string) (*Engine, error) {
	if lanes < 1 || lanes > 64 {
		return nil, fmt.Errorf("psim: engine needs 1..64 lanes, got %d", lanes)
	}
	c, err := formal.NewCircuit(p, clock, formal.Options{})
	if err != nil {
		return nil, err
	}
	e := &Engine{
		c: c, m: NewMachine(c.G), prog: p, d: p.Design(),
		clock: clock, lanes: lanes, record: true,
		inNames: map[string]int{},
	}
	for i, pt := range c.Free {
		e.inNames[pt.Name] = i
		e.stim = append(e.stim, make([]uint64, len(c.In[i])))
	}
	e.applyM = make([]uint64, len(c.Free))

	e.state = make([][]uint64, len(c.Sigs))
	e.mems = make([][][]uint64, len(c.Sigs))
	for i, sv := range c.Sigs {
		e.state[i] = make([]uint64, len(c.State[i]))
		if sv.IsMem {
			e.mems[i] = make([][]uint64, sv.Depth)
			for dw := 0; dw < sv.Depth; dw++ {
				e.mems[i][dw] = make([]uint64, len(c.StateMem[i][dw]))
			}
		}
	}
	inst, err := p.NewInstance()
	if err != nil {
		return nil, err
	}
	e.Broadcast(inst)

	var names []string
	for _, pt := range e.d.Inputs() {
		names = append(names, pt.Name)
	}
	for _, pt := range e.d.Outputs() {
		names = append(names, pt.Name)
	}
	for k := 0; k < lanes; k++ {
		w := sim.NewWaveform(names)
		e.waves = append(e.waves, w)
		if e.recIdx == nil {
			for _, rn := range w.Names() {
				idx := -1
				if i, ok := e.d.SignalIndex(rn); ok {
					idx = i
				}
				e.recIdx = append(e.recIdx, idx)
			}
		}
	}
	e.laneRows = make([][]uint64, lanes)
	for k := range e.laneRows {
		e.laneRows[k] = make([]uint64, len(e.recIdx))
	}
	return e, nil
}

// Lanes returns the lane count.
func (e *Engine) Lanes() int { return e.lanes }

// Ops returns the compiled per-sweep gate count (a size diagnostic).
func (e *Engine) Ops() int { return e.m.Ops() }

// CycleCount returns the number of cycles driven so far.
func (e *Engine) CycleCount() int { return e.cycle }

// Ports returns the row stimulus layout: the non-clock inputs in
// declaration order, identical to sim.Batch.Ports.
func (e *Engine) Ports() []sim.PortInfo { return append([]sim.PortInfo(nil), e.c.Free...) }

// Wave returns lane k's recorded waveform (same names and layout as a
// standalone Harness waveform).
func (e *Engine) Wave(k int) *sim.Waveform { return e.waves[k] }

// SetRecord switches waveform recording on or off (on by default).
// Throughput-only consumers (the experiments -bitlanes amortization
// study) switch it off so timed cycles do not grow 64 waveforms.
func (e *Engine) SetRecord(on bool) { e.record = on }

// Broadcast re-initializes every lane's state from one concrete instance
// arena: all 64 lanes become exact copies of inst (signals and memories).
// Waveforms and the cycle counter are not touched. A freshly constructed
// engine is broadcast from a fresh Instance, matching sim.NewBatch.
func (e *Engine) Broadcast(inst *sim.Instance) {
	for i, sv := range e.c.Sigs {
		spread(e.state[i], inst.Get(sv.Name))
		if sv.IsMem {
			for dw := 0; dw < sv.Depth; dw++ {
				spread(e.mems[i][dw], inst.GetMem(sv.Name, dw))
			}
		}
	}
}

// spread broadcasts one concrete value across all 64 lanes of a
// bit-sliced word vector.
func spread(dst []uint64, v uint64) {
	for b := range dst {
		dst[b] = -(v >> uint(b) & 1)
	}
}

// Cycle drives one cycle on every unmasked lane: rows[k] holds lane k's
// stimulus aligned with Ports(). A nil rows[k] masks lane k out of this
// cycle entirely — it neither advances nor records — mirroring
// sim.Batch.Cycle.
func (e *Engine) Cycle(rows [][]uint64) error {
	if len(rows) != e.lanes {
		return fmt.Errorf("psim: cycle: %d rows for %d lanes", len(rows), e.lanes)
	}
	var active uint64
	for k, row := range rows {
		if row == nil {
			continue
		}
		if len(row) != len(e.c.Free) {
			return fmt.Errorf("psim: cycle: lane %d row has %d values, want %d", k, len(row), len(e.c.Free))
		}
		active |= 1 << uint(k)
	}
	for i := range e.c.Free {
		e.applyM[i] = active
		var col [64]uint64
		for k, row := range rows {
			if row != nil {
				col[k] = row[i]
			}
		}
		packStim(&col, e.stim[i], e.lanes)
	}
	e.cycleWords(active, false)
	e.cycle++
	return nil
}

// packStim converts one port's lane-sliced column into bit-sliced
// stimulus words. Wide ports use the full 64x64 transpose; narrow ports
// (the common case: resets, enables, byte-wide data) gather their few
// bit rows directly, which beats paying the transpose's fixed cost for
// 64 rows when only a handful are live.
func packStim(col *[64]uint64, dst []uint64, lanes int) {
	if len(dst) >= 16 {
		Transpose64(col)
		copy(dst, col[:len(dst)])
		return
	}
	for b := range dst {
		dst[b] = 0
	}
	for k := 0; k < lanes; k++ {
		v := col[k]
		if v == 0 {
			continue
		}
		for b := range dst {
			dst[b] |= (v >> uint(b) & 1) << uint(k)
		}
	}
}

// CycleMaps drives one cycle with per-lane map stimulus under the
// standalone Harness.Cycle application semantics: inputs present in a
// lane's map are applied, absent inputs hold their values, a nil map
// masks the lane out. Keys must name non-clock design inputs (the clock
// key is ignored, as in the harness); other keys are an error — the
// bit-parallel engine cannot honor the harness's internal-signal pokes.
func (e *Engine) CycleMaps(ins []map[string]uint64) error {
	if len(ins) != e.lanes {
		return fmt.Errorf("psim: cycle: %d stimulus maps for %d lanes", len(ins), e.lanes)
	}
	var active uint64
	for i := range e.c.Free {
		e.applyM[i] = 0
	}
	cols := make([][64]uint64, len(e.c.Free))
	for k, in := range ins {
		if in == nil {
			continue
		}
		active |= 1 << uint(k)
		for name, v := range in {
			i, ok := e.inNames[name]
			if !ok {
				if name == e.clock && e.clock != "" {
					continue
				}
				return fmt.Errorf("psim: cycle: lane %d stimulus names %q, not a free input", k, name)
			}
			e.applyM[i] |= 1 << uint(k)
			cols[i][k] = v
		}
	}
	for i := range e.c.Free {
		packStim(&cols[i], e.stim[i], e.lanes)
	}
	e.cycleWords(active, false)
	e.cycle++
	return nil
}

// ApplyReset drives the conventional reset sequence on every lane —
// assert for cycles clock edges (recorded, other inputs holding), then
// deassert and settle without a waveform row — mirroring
// Harness.ApplyReset and sim.Batch.ApplyReset. Designs without a
// recognized reset input are untouched.
func (e *Engine) ApplyReset(cycles int) error {
	name, activeLow := sim.FindReset(e.d)
	if name == "" {
		return nil
	}
	assert, deassert := uint64(1), uint64(0)
	if activeLow {
		assert, deassert = 0, 1
	}
	in := map[string]uint64{name: assert}
	ins := make([]map[string]uint64, e.lanes)
	for k := range ins {
		ins[k] = in
	}
	for i := 0; i < cycles; i++ {
		if err := e.CycleMaps(ins); err != nil {
			return err
		}
	}
	// Deassert + settle: inputs applied, combinational logic settled, no
	// clock pulse, no waveform row — the harness's Set+Settle instant.
	i, ok := e.inNames[name]
	if !ok {
		return fmt.Errorf("psim: reset input %q is not free", name)
	}
	for j := range e.c.Free {
		e.applyM[j] = 0
	}
	var col [64]uint64
	for k := 0; k < e.lanes; k++ {
		col[k] = deassert
	}
	packStim(&col, e.stim[i], e.lanes)
	e.applyM[i] = allLanes(e.lanes)
	e.cycleWords(allLanes(e.lanes), true)
	return nil
}

// allLanes is the active mask covering lanes 0..n-1.
func allLanes(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}

// cycleWords is the bit-parallel hot path: load the previous state and
// the (stimulus-or-hold) input words into the machine's variables, sweep
// the circuit once, commit the root words back into the lane-sliced state
// under the active mask, and append waveform rows. settleOnly commits the
// circuit's settle roots (input apply + clock-low settle) and never
// records — the reset-deassert instant.
func (e *Engine) cycleWords(active uint64, settleOnly bool) {
	c, m := e.c, e.m
	for i := range c.Sigs {
		sv := c.State[i]
		st := e.state[i]
		for b := range sv {
			m.SetVar(sv[b], st[b])
		}
		if mem := c.StateMem[i]; mem != nil {
			for dw := range mem {
				mw := e.mems[i][dw]
				for b := range mem[dw] {
					m.SetVar(mem[dw][b], mw[b])
				}
			}
		}
	}
	for i := range c.Free {
		held := e.state[c.FreeIdx[i]]
		apply := e.applyM[i]
		inv := c.In[i]
		stim := e.stim[i]
		for b := range inv {
			m.SetVar(inv[b], stim[b]&apply|held[b]&^apply)
		}
	}
	m.Sweep()
	roots, memRoots := c.Next, c.NextMem
	if settleOnly {
		roots, memRoots = c.Settle, c.SettleMem
	}
	for i := range c.Sigs {
		rv := roots[i]
		st := e.state[i]
		for b := range rv {
			st[b] = m.Word(rv[b])&active | st[b]&^active
		}
		if mem := memRoots[i]; mem != nil {
			for dw := range mem {
				mw := e.mems[i][dw]
				for b := range mem[dw] {
					mw[b] = m.Word(mem[dw][b])&active | mw[b]&^active
				}
			}
		}
	}
	if settleOnly || !e.record {
		return
	}
	for ri, idx := range e.recIdx {
		if idx < 0 {
			for k := 0; k < e.lanes; k++ {
				e.laneRows[k][ri] = 0
			}
			continue
		}
		st := e.state[idx]
		if len(st) >= 16 {
			var col [64]uint64
			copy(col[:], st)
			Transpose64(&col)
			for k := 0; k < e.lanes; k++ {
				e.laneRows[k][ri] = col[k]
			}
			continue
		}
		// Narrow signals: gather the few live bit rows per lane instead of
		// paying the transpose's fixed 64-row cost.
		for k := 0; k < e.lanes; k++ {
			e.laneRows[k][ri] = lane(st, k)
		}
	}
	for k := 0; k < e.lanes; k++ {
		if active>>uint(k)&1 == 1 {
			e.waves[k].RecordRow(e.laneRows[k])
		}
	}
}

// lane extracts lane k's value from a bit-sliced word vector.
func lane(words []uint64, k int) uint64 {
	var v uint64
	for b, w := range words {
		v |= (w >> uint(k) & 1) << uint(b)
	}
	return v
}

// Outputs samples lane k's top-level outputs without advancing time.
func (e *Engine) Outputs(k int) map[string]uint64 {
	outs := map[string]uint64{}
	for _, pt := range e.d.Outputs() {
		if idx, ok := e.d.SignalIndex(pt.Name); ok {
			outs[pt.Name] = lane(e.state[idx], k)
		}
	}
	return outs
}

// Get reads lane k's current value of a signal by name (0 when unknown),
// mirroring Instance.Get.
func (e *Engine) Get(k int, name string) uint64 {
	idx, ok := e.d.SignalIndex(name)
	if !ok {
		return 0
	}
	return lane(e.state[idx], k)
}

// GetMem reads lane k's current value of one memory word (0 when unknown
// or out of range), mirroring Instance.GetMem.
func (e *Engine) GetMem(k int, name string, word int) uint64 {
	idx, ok := e.d.SignalIndex(name)
	if !ok || e.mems[idx] == nil || word < 0 || word >= len(e.mems[idx]) {
		return 0
	}
	return lane(e.mems[idx][word], k)
}
