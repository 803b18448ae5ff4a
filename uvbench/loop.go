package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// workload is one set of generated inputs driven through uvllm's public
// entry points. measure owns timing, host calibration and the closed
// loop; a workload owns its inputs, the calls into uvllm and the checks
// on what comes back.
type workload interface {
	// clients is the closed loop's client count: each client sends its
	// next item only after the previous one completed.
	clients() int
	// round returns round r's items (workload-defined ids), split into
	// chunks. Every round of a workload does the same kind and amount of
	// work, so per-round rates are comparable.
	round(r int) [][]int
	// beginRound resets per-round program state (fresh caches for eval);
	// traced says whether the round's items will be traced.
	beginRound(r int, traced bool)
	// do runs one item. traced asks for the per-layer breakdown.
	do(id int, traced bool) outcome
	// endRound checks round-level outputs. A non-nil error fails every
	// item of the round.
	endRound(r int, traced bool) error
	// quality returns the result-quality figures (fix rate, coverage,
	// proof rate) and exact per-item counts over all items run.
	quality() map[string]float64
	// layerCounts returns the per-layer counters (cache hit shares,
	// solver work) over the traced rounds.
	layerCounts() map[string]float64
}

// outcome is the result of one item.
type outcome struct {
	lat    time.Duration // item wall time as the client sees it
	failed bool          // errored, refused, or failed an output check
	why    string        // failure reason, printed to stderr
	// layers holds per-layer time in raw milliseconds (traced items only).
	layers map[string]float64
	// covered is the raw milliseconds of the item's wall time that its
	// measured layer spans cover (traced items only).
	covered float64
}

// kernelEvery is the work between two host kernel runs. One run scatters
// by a third, so the run's factor needs hundreds of them: at one run per
// 62 ms of work a 20 s run takes about 300, and the kernel costs about
// 8% of the run's wall time, outside the timed chunks.
const kernelEvery = 62 * time.Millisecond

// measurement is everything the timed loop observed, in raw host time.
// report scales every timing by the run's host factor.
type measurement struct {
	tally
	rounds     int
	rates      []float64          // items/s per round
	lats       []float64          // ms per item
	allocMB    float64            // per item
	calibMS    []float64          // host kernel wall times, one per kernelEvery of work
	layers     map[string]float64 // ms summed over traced items
	covered    float64            // ms of traced item wall covered by layer spans
	tracedWall float64            // ms of traced item wall
	tracedN    int
	overhead   float64 // traced vs untraced items/s, percent
}

// hostFactor converts the run's raw timings to reference-host time
// through the kernel time over the run, averaged with the slowest and
// fastest tenth of the runs dropped. One kernel run is too short to
// track the host (it scatters by a third), and the median of many
// tracks it poorly too: the host slows in bursts, and only a mean of
// runs spread evenly over the work weighs a burst by how long it lasts.
// Trimming keeps a few kernel runs that a burst hit harder than the
// work from moving the whole run. On the reference host, over windows
// of 20 s of jobs, scaling by the trimmed mean cut the spread of
// throughput from 26% to 3.4%; the median left 8%.
func (m *measurement) hostFactor() float64 { return hostScale(trimmedMean(m.calibMS, 0.1)) }

// minItems is the fewest items a run measures, however long they take:
// enough that latency_tail_ms is at least the p95 rung (see
// tailPercentile), so a run's item count cannot flip its tail between
// rungs on a bimodal workload such as jobs_prove.
const minItems = 200

// measure runs whole rounds of w until seconds have passed, running the
// host kernel at every chunk boundary. With traced set, odd rounds are
// traced and even rounds are not, so the per-layer ledger and the
// tracing overhead come from the same run.
func measure(w workload, k *hostKernel, seconds float64, traced bool) *measurement {
	m := &measurement{layers: map[string]float64{}}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	m.calibMS = append(m.calibMS, k.run())
	owed := 0.0 // kernel runs due
	var tracedItems, untracedItems int
	var tracedMS, untracedMS float64
	var ms runtime.MemStats
	var alloc uint64
	for r := 0; ; r++ {
		tracedRound := traced && r%2 == 1
		w.beginRound(r, tracedRound)
		wallMS := 0.0
		var roundOut []outcome
		for _, chunk := range w.round(r) {
			runtime.ReadMemStats(&ms)
			a0 := ms.TotalAlloc
			t0 := time.Now()
			outs := runChunk(w, chunk, tracedRound)
			chunkMS := msSince(t0)
			wallMS += chunkMS
			runtime.ReadMemStats(&ms)
			alloc += ms.TotalAlloc - a0
			// Kernel runs at chunk boundaries, one per kernelEvery of the
			// chunk's work: the runs spread over the run as the work does.
			for owed += chunkMS / ms64(kernelEvery); owed >= 1; owed-- {
				m.calibMS = append(m.calibMS, k.run())
			}
			roundOut = append(roundOut, outs...)
		}
		roundErr := w.endRound(r, tracedRound)
		if roundErr != nil {
			warnf("round %d failed its output check: %v", r, roundErr)
		}
		for _, o := range roundOut {
			m.add(o.failed || roundErr != nil)
			if o.failed {
				warnf("item failed: %s", o.why)
			}
			m.lats = append(m.lats, ms64(o.lat))
			if tracedRound {
				for name, v := range o.layers {
					m.layers[name] += v
				}
				m.covered += o.covered
				m.tracedWall += ms64(o.lat)
			}
		}
		m.rates = append(m.rates, float64(len(roundOut))/(wallMS/1000))
		if tracedRound {
			tracedItems += len(roundOut)
			tracedMS += wallMS
		} else {
			untracedItems += len(roundOut)
			untracedMS += wallMS
		}
		m.rounds++
		if time.Now().After(deadline) && m.attempted >= minItems && (!traced || m.rounds >= 2) {
			break
		}
	}
	m.tracedN = tracedItems
	if m.attempted > 0 {
		m.allocMB = float64(alloc) / float64(m.attempted) / 1e6
	}
	if tracedItems > 0 && untracedItems > 0 {
		tracedRate := float64(tracedItems) / tracedMS
		untracedRate := float64(untracedItems) / untracedMS
		m.overhead = 100 * (untracedRate/tracedRate - 1)
	}
	return m
}

// runChunk runs one chunk's items through w's closed loop and waits for
// every client to finish. Outcomes are returned in item order.
func runChunk(w workload, chunk []int, traced bool) []outcome {
	outs := make([]outcome, len(chunk))
	var next atomic.Int64
	var wg sync.WaitGroup
	n := w.clients()
	if n > len(chunk) {
		n = len(chunk)
	}
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(chunk) {
					return
				}
				outs[i] = w.do(chunk[i], traced)
			}
		}()
	}
	wg.Wait()
	return outs
}

// chunked splits ids into chunks of at most size items.
func chunked(ids []int, size int) [][]int {
	if size < 1 {
		size = 1
	}
	var out [][]int
	for len(ids) > 0 {
		n := size
		if n > len(ids) {
			n = len(ids)
		}
		out = append(out, ids[:n])
		ids = ids[n:]
	}
	return out
}

func ms64(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msSince(t time.Time) float64 { return ms64(time.Since(t)) }

func warnf(format string, args ...any) {
	fmt.Fprintf(stderr, "uvbench: "+format+"\n", args...)
}
