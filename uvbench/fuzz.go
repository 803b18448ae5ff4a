package main

import (
	"fmt"
	"sync"
	"time"

	"uvllm/internal/rtlgen"
	"uvllm/internal/sim"
)

// Fuzz oracle settings: what `rtlgen -check -lanes 8` runs per design.
const (
	fuzzLanes  = 8
	fuzzCycles = 60
	fuzzChunk  = 6  // designs per calibration chunk (~0.25 s)
	fuzzRound  = 24 // designs per round
	// fuzzCorpus is the generated design count. It is larger than a run
	// consumes at reference speed, and more than twice the entries of
	// the oracles' internal compile cache, so a design is never seen warm
	// even when a fast host wraps around the corpus.
	fuzzCorpus = 1024
	// fuzzSeedStride separates the design seeds of different benchmark
	// seeds, so two seeds share no designs.
	fuzzSeedStride = 1_000_003
)

// fuzzWorkload is the differential fuzzer: one client runs seeded
// rtlgen designs through the cross-backend, round-trip and batch-lane
// oracles. Every design is new to the program, so both backends compile
// cold and the event-driven engine runs beside the compiled one.
type fuzzWorkload struct {
	designs []*rtlgen.Design

	mu        sync.Mutex
	levelized int
	checked   int
}

// newFuzzWorkload is fuzz_lanes' set-up: generate the design corpus.
func newFuzzWorkload(seed int64) (*fuzzWorkload, error) {
	w := &fuzzWorkload{designs: make([]*rtlgen.Design, fuzzCorpus)}
	base := seed * fuzzSeedStride
	for i := range w.designs {
		w.designs[i] = rtlgen.Generate(base + int64(i))
	}
	return w, nil
}

func (w *fuzzWorkload) clients() int { return 1 }

func (w *fuzzWorkload) round(r int) [][]int {
	ids := make([]int, fuzzRound)
	for i := range ids {
		ids[i] = (r*fuzzRound + i) % len(w.designs)
	}
	return chunked(ids, fuzzChunk)
}

func (w *fuzzWorkload) beginRound(r int, traced bool) {}

func (w *fuzzWorkload) endRound(r int, traced bool) error { return nil }

// do runs one design through the oracles. Traced, it also times the
// design's generation and a cold compile of its source on the compiled
// backend, and times each oracle separately.
func (w *fuzzWorkload) do(id int, traced bool) outcome {
	d := w.designs[id]
	start := time.Now()
	var layers map[string]float64
	covered := 0.0
	timed := func(layer string, fn func()) {
		if !traced {
			fn()
			return
		}
		t := time.Now()
		fn()
		dt := msSince(t)
		layers[layer] += dt
		covered += dt
	}
	if traced {
		layers = map[string]float64{}
		timed("rtlgen.generate_ms", func() { rtlgen.Generate(d.Seed) })
		timed("sim.compile_ms", func() { _, _ = sim.CompileSource(d.Source, d.Top, sim.BackendCompiled) })
	}
	fail := func(format string, args ...any) outcome {
		return outcome{lat: time.Since(start), failed: true, why: fmt.Sprintf("design seed %d: ", d.Seed) + fmt.Sprintf(format, args...)}
	}
	var rep rtlgen.DiffReport
	var err error
	timed("rtlgen.diff_backends_ms", func() { rep, err = rtlgen.DiffBackends(d.Source, d.Top, d.Clock, fuzzCycles, d.Seed) })
	if err != nil {
		return fail("backends diverged: %v", err)
	}
	timed("verilog.roundtrip_ms", func() { err = rtlgen.RoundTrip(d.Source) })
	if err != nil {
		return fail("round trip: %v", err)
	}
	timed("rtlgen.batch_diff_ms", func() { err = rtlgen.DiffBatchLanes(d.Source, d.Top, d.Clock, fuzzLanes, fuzzCycles, d.Seed) })
	if err != nil {
		return fail("batch lanes diverged: %v", err)
	}
	w.mu.Lock()
	w.checked++
	if rep.Levelized {
		w.levelized++
	}
	w.mu.Unlock()
	return outcome{lat: time.Since(start), layers: layers, covered: covered}
}

func (w *fuzzWorkload) quality() map[string]float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return map[string]float64{"levelized_pct": pct(float64(w.levelized), float64(w.checked))}
}

func (w *fuzzWorkload) layerCounts() map[string]float64 { return nil }
