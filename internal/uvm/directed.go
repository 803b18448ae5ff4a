package uvm

// Coverage-directed stimulus. Random vectors exercise a DUT's easy
// structure quickly but plateau: equality branches, rare case arms and
// deep FSM states need specific values that a uniform draw over a wide
// input space almost never produces. The directed layer closes the loop
// the paper's fixed-budget UVM stage leaves open — it watches the
// structural coverage map grow, keeps the stimulus snippets that grew it
// (a corpus scheduled by new-coverage gain, in the AFL tradition), and
// generates candidates by mutating saved seeds and by drawing boundary
// values and design constants instead of uniform randoms.

import (
	"fmt"
	"math/rand"

	"uvllm/internal/cover"
	"uvllm/internal/sim"
)

// StimConfig configures one coverage measurement run (random or
// directed) over a compiled program.
type StimConfig struct {
	// Clock is the clock input name ("" for combinational DUTs).
	Clock string
	// Cycles is the stimulus budget: the number of harness cycles driven
	// after reset. Random and directed runs with equal Cycles are
	// directly comparable.
	Cycles int
	// Seed feeds the deterministic stimulus RNG.
	Seed int64
	// Cover selects the coverage models; the zero value means CoverAll.
	Cover sim.CoverOptions
	// SnippetLen is the length in cycles of one directed stimulus
	// snippet (default 5). Shorter snippets give finer gain attribution;
	// longer ones reach deeper sequential behavior.
	SnippetLen int
	// Lanes selects the batched candidate scorer: values > 1 make
	// CoverageDirected evaluate that many candidate snippets per round in
	// one sim.Batch (fused sweeps, shared schedule decode) and continue
	// from the best, under the same total cycle budget. 0 or 1 keeps the
	// sequential loop.
	Lanes int
}

func (c StimConfig) cover() sim.CoverOptions {
	if c.Cover.Any() {
		return c.Cover
	}
	return sim.CoverAll()
}

func (c StimConfig) snippetLen() int {
	if c.SnippetLen > 0 {
		return c.SnippetLen
	}
	return 5
}

// CorpusEntry is one saved stimulus snippet and the new-coverage gain it
// produced when first executed.
type CorpusEntry struct {
	Vectors []map[string]uint64
	Gain    int
}

// Corpus is the set of coverage-raising stimulus snippets a directed run
// accumulated. Entries are scheduled for mutation with probability
// proportional to their recorded gain.
type Corpus struct {
	Entries []CorpusEntry
}

// totalGain sums the recorded gains (the mutation lottery's ticket count).
func (c *Corpus) totalGain() int {
	n := 0
	for _, e := range c.Entries {
		n += e.Gain
	}
	return n
}

// pick draws a corpus entry gain-weighted, or nil when the corpus is
// empty.
func (c *Corpus) pick(rng *rand.Rand) *CorpusEntry {
	total := c.totalGain()
	if total == 0 {
		return nil
	}
	t := rng.Intn(total)
	for i := range c.Entries {
		t -= c.Entries[i].Gain
		if t < 0 {
			return &c.Entries[i]
		}
	}
	return &c.Entries[len(c.Entries)-1]
}

// CoverageRandom measures the structural coverage a plain
// constrained-random run reaches: cfg.Cycles uniform vectors over the
// non-clock inputs with the reset held inactive — exactly the stimulus
// RandomSequence drives — after a 2-cycle reset phase.
func CoverageRandom(p *sim.Program, cfg StimConfig) (*cover.Map, error) {
	h, err := coverHarness(p, cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ports := stimPorts(p.Design(), cfg.Clock)
	rstName, activeLow := sim.FindReset(p.Design())
	for i := 0; i < cfg.Cycles; i++ {
		in := map[string]uint64{}
		for _, pt := range ports {
			in[pt.Name] = rng.Uint64() & maskW(pt.Width)
		}
		holdResetInactive(in, rstName, activeLow)
		if _, err := h.Cycle(in); err != nil {
			return h.Coverage(), err
		}
	}
	return h.Coverage(), nil
}

// CoverageDirected measures the structural coverage the
// coverage-directed loop reaches under the same cycle budget as
// CoverageRandom, returning the final map and the corpus of
// coverage-raising snippets. The loop runs snippet by snippet: each
// candidate is either a mutation of a gain-weighted corpus seed or a
// fresh snippet drawn from the boundary/constant-biased value
// distribution, and any snippet that hits new points joins the corpus.
func CoverageDirected(p *sim.Program, cfg StimConfig) (*cover.Map, *Corpus, error) {
	if cfg.Lanes > 1 {
		return CoverageDirectedBatch(p, cfg)
	}
	h, err := coverHarness(p, cfg)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := p.Design()
	ports := stimPorts(d, cfg.Clock)
	rstName, activeLow := sim.FindReset(d)
	// Zero is already a boundary draw; keeping it in the dictionary would
	// only double its weight.
	var dict []uint64
	for _, c := range d.Constants() {
		if c != 0 {
			dict = append(dict, c)
		}
	}

	m := h.Coverage()
	corpus := &Corpus{}
	remaining := cfg.Cycles
	for remaining > 0 {
		k := cfg.snippetLen()
		if k > remaining {
			k = remaining
		}
		snippet := nextCandidate(corpus, rng, ports, dict, rstName, activeLow, k)
		before := m.Hit()
		for _, in := range snippet {
			if _, err := h.Cycle(in); err != nil {
				return m, corpus, err
			}
			remaining--
		}
		if gain := m.Hit() - before; gain > 0 {
			corpus.Entries = append(corpus.Entries, CorpusEntry{Vectors: snippet, Gain: gain})
		}
	}
	return m, corpus, nil
}

// CoverageDirectedBatch is the lane-parallel directed loop: each round
// restores cfg.Lanes instances of one sim.Batch to the committed state,
// drives one candidate snippet per lane in fused sweeps, scores every
// candidate's coverage gain against the accumulated map, and continues
// from the best candidate's post-snippet state. All simulated cycles
// count against cfg.Cycles (L lanes × k-cycle snippets consume L·k), so
// runs stay budget-comparable with CoverageRandom and the sequential
// CoverageDirected; every lane's observed coverage is merged — a losing
// candidate's points were still genuinely exercised.
func CoverageDirectedBatch(p *sim.Program, cfg StimConfig) (*cover.Map, *Corpus, error) {
	lanes := cfg.Lanes
	if lanes < 2 {
		lanes = 2
	}
	b, err := sim.NewBatch(p, lanes, cfg.Clock)
	if err != nil {
		return nil, nil, err
	}
	if err := b.EnableCover(cfg.cover()); err != nil {
		return nil, nil, err
	}
	if err := b.ApplyReset(2); err != nil {
		return nil, nil, fmt.Errorf("uvm: cover reset: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := p.Design()
	ports := stimPorts(d, cfg.Clock)
	rstName, activeLow := sim.FindReset(d)
	var dict []uint64
	for _, c := range d.Constants() {
		if c != 0 {
			dict = append(dict, c)
		}
	}

	m := b.Coverage(0).Clone() // reset-phase coverage, identical on every lane
	cur := b.Lane(0).Snapshot()
	corpus := &Corpus{}
	ins := make([]map[string]uint64, lanes)
	remaining := cfg.Cycles
	for remaining > 0 {
		k := cfg.snippetLen()
		if k > remaining {
			k = remaining
		}
		live := remaining / k // candidates this round within budget
		if live < 1 {
			live = 1
		}
		if live > lanes {
			live = lanes
		}
		candidates := make([][]map[string]uint64, live)
		for l := range candidates {
			candidates[l] = nextCandidate(corpus, rng, ports, dict, rstName, activeLow, k)
		}
		for l := 0; l < live; l++ {
			// Fresh per-round map first, then restore: the rewind lands the
			// FSM sampler history in the new collector, so each lane's map
			// holds exactly this snippet's coverage.
			if err := b.EnableCoverLane(l, cfg.cover()); err != nil {
				return m, corpus, err
			}
			if err := b.Lane(l).Restore(cur); err != nil {
				return m, corpus, err
			}
		}
		for c := 0; c < k; c++ {
			for l := range ins {
				if l < live {
					ins[l] = candidates[l][c]
				} else {
					ins[l] = nil
				}
			}
			if err := b.CycleMaps(ins); err != nil {
				return m, corpus, err
			}
		}
		best, bestGain := -1, -1
		for l := 0; l < live; l++ {
			if b.Err(l) != nil {
				continue
			}
			if gain := m.Gain(b.Coverage(l)); gain > bestGain {
				best, bestGain = l, gain
			}
		}
		if best < 0 {
			return m, corpus, b.Err(0)
		}
		for l := 0; l < live; l++ {
			if b.Err(l) != nil {
				continue
			}
			if gain := m.Gain(b.Coverage(l)); gain > 0 {
				corpus.Entries = append(corpus.Entries, CorpusEntry{Vectors: candidates[l], Gain: gain})
			}
			m.Merge(b.Coverage(l))
		}
		cur = b.Lane(best).Snapshot()
		remaining -= live * k
	}
	return m, corpus, nil
}

// coverHarness compiles nothing: it instantiates the program, enables
// coverage (harness-clock excluded) and applies the reset phase.
func coverHarness(p *sim.Program, cfg StimConfig) (*sim.Harness, error) {
	inst, err := p.NewInstance()
	if err != nil {
		return nil, err
	}
	h := sim.NewHarness(inst, cfg.Clock)
	if err := h.EnableCover(cfg.cover()); err != nil {
		return nil, err
	}
	if err := h.ApplyReset(2); err != nil {
		return nil, fmt.Errorf("uvm: cover reset: %w", err)
	}
	return h, nil
}

// stimPorts returns the drivable inputs (everything but the clock).
func stimPorts(d *sim.Design, clock string) []sim.PortInfo {
	var out []sim.PortInfo
	for _, pt := range d.Inputs() {
		if pt.Name == clock {
			continue
		}
		out = append(out, pt)
	}
	return out
}

func holdResetInactive(in map[string]uint64, rstName string, activeLow bool) {
	if rstName == "" {
		return
	}
	if activeLow {
		in[rstName] = 1
	} else {
		in[rstName] = 0
	}
}

// nextCandidate produces the next snippet to try. The mix matters: pure
// uniform snippets keep the per-bit entropy (and with it the toggle
// coverage rate) at the random baseline, biased snippets reach equality
// branches and case arms uniform draws almost never hit, and mutations
// of gain-weighted corpus seeds re-enter the rare states those snippets
// discovered.
func nextCandidate(corpus *Corpus, rng *rand.Rand, ports []sim.PortInfo, dict []uint64, rstName string, activeLow bool, k int) []map[string]uint64 {
	switch rng.Intn(5) {
	case 0:
		if e := corpus.pick(rng); e != nil {
			return mutateSnippet(rng, e.Vectors, ports, dict, rstName, activeLow, k)
		}
	case 1, 2:
		return freshSnippet(rng, ports, dict, rstName, activeLow, k)
	}
	return uniformSnippet(rng, ports, rstName, activeLow, k)
}

// uniformSnippet draws k cycles of plain uniform vectors — the random
// baseline's own distribution.
func uniformSnippet(rng *rand.Rand, ports []sim.PortInfo, rstName string, activeLow bool, k int) []map[string]uint64 {
	out := make([]map[string]uint64, k)
	for i := range out {
		in := map[string]uint64{}
		for _, pt := range ports {
			in[pt.Name] = rng.Uint64() & maskW(pt.Width)
		}
		holdResetInactive(in, rstName, activeLow)
		out[i] = in
	}
	return out
}

// freshSnippet draws k cycles of boundary/constant-biased vectors with
// the reset held inactive — the initial reset phase already exercises
// the reset branches, and mid-run resets would keep clearing the
// accumulated state whose high bits are the hardest toggle points.
func freshSnippet(rng *rand.Rand, ports []sim.PortInfo, dict []uint64, rstName string, activeLow bool, k int) []map[string]uint64 {
	out := make([]map[string]uint64, k)
	for i := range out {
		in := map[string]uint64{}
		for _, pt := range ports {
			in[pt.Name] = biasedValue(rng, pt.Width, dict)
		}
		holdResetInactive(in, rstName, activeLow)
		out[i] = in
	}
	return out
}

// mutateSnippet copies a corpus seed, resizes it to k cycles and rewrites
// a few (cycle, port) positions with biased values or single-bit flips.
// The reset port is never a mutation target: every snippet generator
// holds reset inactive, and a flipped reset would re-clear exactly the
// deep state the corpus seed was saved for reaching.
func mutateSnippet(rng *rand.Rand, seed []map[string]uint64, ports []sim.PortInfo, dict []uint64, rstName string, activeLow bool, k int) []map[string]uint64 {
	out := make([]map[string]uint64, k)
	for i := range out {
		src := seed[i%len(seed)]
		in := make(map[string]uint64, len(src))
		for kk, vv := range src {
			in[kk] = vv
		}
		holdResetInactive(in, rstName, activeLow)
		out[i] = in
	}
	var mutable []sim.PortInfo
	for _, pt := range ports {
		if pt.Name != rstName {
			mutable = append(mutable, pt)
		}
	}
	if len(mutable) == 0 {
		return out
	}
	muts := 1 + rng.Intn(3)
	for i := 0; i < muts; i++ {
		cyc := rng.Intn(k)
		pt := mutable[rng.Intn(len(mutable))]
		if rng.Intn(2) == 0 {
			out[cyc][pt.Name] = biasedValue(rng, pt.Width, dict)
		} else {
			out[cyc][pt.Name] ^= 1 << uint(rng.Intn(pt.Width)) // bit flip
			out[cyc][pt.Name] &= maskW(pt.Width)
		}
	}
	return out
}

// biasedValue draws one input value from the coverage-seeking
// distribution: boundary values (0, max), walking single bits, design
// constants, and a fat uniform tail — the tail keeps per-cycle entropy
// (and with it toggle coverage) close to the pure-random baseline, while
// the biased half reaches the equality branches and case arms uniform
// draws almost never hit.
func biasedValue(rng *rand.Rand, width int, dict []uint64) uint64 {
	max := maskW(width)
	// Narrow ports: uniform draws already cover the value space densely;
	// biasing them only skews duty cycles (a slower enable, a stickier
	// select) without reaching anything new.
	if width <= 2 {
		return rng.Uint64() & max
	}
	switch rng.Intn(10) {
	case 0:
		return 0
	case 1:
		return max
	case 2:
		return (1 << uint(rng.Intn(width))) & max
	case 3, 4:
		if len(dict) > 0 {
			return dict[rng.Intn(len(dict))] & max
		}
		return rng.Uint64() & max
	default:
		return rng.Uint64() & max
	}
}
