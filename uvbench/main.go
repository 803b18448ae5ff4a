// Command uvbench is uvllm's benchmark. It drives four workloads through
// the program's public entry points — the verification server
// in-process, the evaluation harness, and the differential fuzzer's
// oracles — and prints every metric by name with its unit, the
// result-quality figures, and a final JSON result line:
//
//	bash uvbench/run.sh --workload jobs_repair --seed 1 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate
// run that traces every other round and reports the per-layer ledger.
// Every timing is scaled to reference-host speed by a host kernel run
// between chunks of work (calib.go); the raw value is printed beside it.
// NOTES.md gives the workloads' rationale and the measured spreads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

var stderr io.Writer = os.Stderr

// setupSamples is how many fresh processes measure set-up in each run,
// besides the run's own set-up. Set-up is dominated by once-per-process
// work (the benchmark's fault generation), so only a fresh process can
// repeat it; the reported setup_s is the median of all samples.
const setupSamples = 6

// workloadSpec names one workload and builds its set-up.
type workloadSpec struct {
	name  string
	item  string // what one item is, for the printed units
	setup func(seed int64) (workload, func(), error)
}

var workloads = []workloadSpec{
	{"jobs_repair", "jobs", func(seed int64) (workload, func(), error) {
		w, err := newJobsWorkload(seed, false)
		if err != nil {
			return nil, nil, err
		}
		return w, w.close, nil
	}},
	{"jobs_prove", "jobs", func(seed int64) (workload, func(), error) {
		w, err := newJobsWorkload(seed, true)
		if err != nil {
			return nil, nil, err
		}
		return w, w.close, nil
	}},
	{"eval_table2", "instances", func(seed int64) (workload, func(), error) {
		w, err := newEvalWorkload(seed)
		return w, func() {}, err
	}},
	{"fuzz_lanes", "designs", func(seed int64) (workload, func(), error) {
		w, err := newFuzzWorkload(seed)
		return w, func() {}, err
	}},
}

func nproc() int { return runtime.NumCPU() }

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "uvbench:", err)
		os.Exit(1)
	}
}

// errChecksFailed reports a completed run whose outputs failed a check;
// its result line has already been printed.
var errChecksFailed = errors.New("output checks failed")

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("uvbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: jobs_repair, jobs_prove, eval_table2 or fuzz_lanes")
	seed := fs.Int64("seed", 1, "workload seed: every input is derived from it")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer ledger")
	setupChild := fs.Bool("setup-child", false, "internal: time one set-up in this process and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var spec *workloadSpec
	for i := range workloads {
		if workloads[i].name == *name {
			spec = &workloads[i]
		}
	}
	switch {
	case spec == nil:
		return fmt.Errorf("unknown workload %q", *name)
	case *seconds <= 0:
		return fmt.Errorf("--seconds must be positive")
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("--trace must be 0 or 1")
	}

	if *setupChild {
		s, err := timedSetup(spec, *seed)
		if err != nil {
			return err
		}
		return json.NewEncoder(out).Encode(s)
	}

	// Set-up: fresh processes first, then this process's own set-up,
	// whose workload the timed loop then drives. A traced run reports no
	// setup_s and skips the fresh processes.
	var setups []float64
	for i := 0; i < setupSamples && *trace == 0; i++ {
		s, err := childSetup(spec.name, *seed)
		if err != nil {
			return err
		}
		setups = append(setups, s.SetupS)
	}
	t0 := time.Now()
	w, closeW, err := spec.setup(*seed)
	if err != nil {
		return fmt.Errorf("%s set-up: %w", spec.name, err)
	}
	defer closeW()
	setups = append(setups, time.Since(t0).Seconds())

	// The kernel runs on as many threads as the workload keeps busy, so
	// it feels the host the way the workload does: a neighbor taking one
	// core slows a two-thread kernel fully but a one-client workload not
	// at all.
	k := newHostKernel(w.clients())
	defer k.stop()
	m := measure(w, k, *seconds, *trace == 1)
	res := report(out, spec, m, median(setups), w, *trace == 1)
	if err := json.NewEncoder(out).Encode(res); err != nil {
		return err
	}
	if !res.Correct {
		return errChecksFailed
	}
	return nil
}

// setupSample is one fresh process's set-up measurement.
type setupSample struct {
	SetupS float64 `json:"setup_s"`
}

// timedSetup times one set-up.
func timedSetup(spec *workloadSpec, seed int64) (setupSample, error) {
	t0 := time.Now()
	_, closeW, err := spec.setup(seed)
	s := time.Since(t0).Seconds()
	if err != nil {
		return setupSample{}, err
	}
	closeW()
	return setupSample{SetupS: s}, nil
}

// childSetup measures one set-up in a fresh copy of this program and
// waits for it to exit.
func childSetup(name string, seed int64) (setupSample, error) {
	exe, err := os.Executable()
	if err != nil {
		return setupSample{}, err
	}
	cmd := exec.Command(exe, "--setup-child", "--workload", name, "--seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return setupSample{}, fmt.Errorf("set-up process: %w", err)
	}
	var s setupSample
	if err := json.Unmarshal(b, &s); err != nil {
		return setupSample{}, fmt.Errorf("set-up process output: %w", err)
	}
	return s, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// layerSpec is one per-layer ledger row: the layer metric, the
// end-to-end metric it should move, and the workloads it should move on.
type layerSpec struct {
	name, unit, moves, on string
	time                  bool // a per-item time, counted in the wall-time shares
}

// ledger is the per-layer metric set, reported on every workload (0 where
// a workload does not exercise the layer — the "flat on" prediction).
var ledger = []layerSpec{
	{"service.setup_ms", "ms", "latency_p50_ms, items_per_s", "jobs_repair", true},
	{"service.queue_wait_ms", "ms", "latency_tail_ms", "jobs_*", true},
	{"service.http_ms", "ms", "latency_p50_ms", "jobs_*", true},
	{"service.wait_ms", "ms", "latency_p50_ms", "jobs_*", true},
	{"core.preprocess_ms", "ms", "items_per_s", "jobs_repair, eval_table2", true},
	{"core.iteration_ms", "ms", "items_per_s", "jobs_repair, eval_table2", true},
	{"uvm.compile_ms", "ms", "items_per_s", "jobs_repair, eval_table2", true},
	{"uvm.run_ms", "ms", "items_per_s", "jobs_repair, eval_table2", true},
	{"locate.ms", "ms", "items_per_s", "jobs_repair, eval_table2", true},
	{"llm.ms", "ms", "items_per_s", "jobs_repair, eval_table2", true},
	{"core.verify_ms", "ms", "items_per_s", "jobs_repair, eval_table2", true},
	{"formal.ms", "ms", "items_per_s, latency_tail_ms", "jobs_prove", true},
	{"formal.blast_ms", "ms", "items_per_s, latency_tail_ms", "jobs_prove", true},
	{"formal.bmc_ms", "ms", "items_per_s, latency_tail_ms", "jobs_prove", true},
	{"formal.induct_base_ms", "ms", "items_per_s, latency_tail_ms", "jobs_prove", true},
	{"formal.induct_step_ms", "ms", "items_per_s, latency_tail_ms", "jobs_prove", true},
	{"baseline.meic_ms", "ms", "items_per_s", "eval_table2", true},
	{"baseline.raw_ms", "ms", "items_per_s", "eval_table2", true},
	{"baseline.template_ms", "ms", "items_per_s", "eval_table2", true},
	{"exp.expert_ms", "ms", "items_per_s", "eval_table2", true},
	{"rtlgen.generate_ms", "ms", "items_per_s", "fuzz_lanes", true},
	{"sim.compile_ms", "ms", "items_per_s", "fuzz_lanes", true},
	{"rtlgen.diff_backends_ms", "ms", "items_per_s", "fuzz_lanes", true},
	{"verilog.roundtrip_ms", "ms", "items_per_s", "fuzz_lanes", true},
	{"rtlgen.batch_diff_ms", "ms", "items_per_s", "fuzz_lanes", true},
	{"core.iterations_per_item", "count", "(exact count)", "jobs_*, eval_table2", false},
	{"llm.calls_per_item", "count", "(exact count)", "jobs_*, eval_table2", false},
	{"llm.tokens_per_item", "count", "(exact count)", "jobs_*, eval_table2", false},
	{"sim.cache_hit_pct", "%", "uvm.compile_ms -> items_per_s", "eval_table2", false},
	{"uvm.memo_hit_pct", "%", "uvm.compile_ms -> items_per_s", "eval_table2", false},
	{"formal.solves_per_item", "count", "(exact count)", "jobs_prove", false},
	{"formal.conflicts_per_item", "count", "(exact count)", "jobs_prove", false},
	{"formal.propagations_per_item", "count", "(exact count)", "jobs_prove", false},
	{"formal.props_per_ms", "1/ms", "items_per_s", "jobs_prove", false},
	{"fix_rate_pct", "%", "(exact: result quality)", "jobs_*, eval_table2", false},
	{"proved_pct", "%", "(exact: result quality)", "jobs_prove", false},
	{"coverage_pct", "%", "(exact: result quality)", "jobs_*, eval_table2", false},
	{"fail_pct", "%", "(must be 0)", "all", false},
	{"host.calib_ms", "ms", "(normalizer)", "all", false},
	{"bench.trace_coverage_pct", "%", "(ledger quality, >=95)", "all", false},
	{"bench.trace_overhead_pct", "%", "(ledger quality)", "all", false},
}

// formalLayers are the ledger times under the formal span; their sum is
// the formal span's duration.
var formalLayers = []string{"formal.ms", "formal.blast_ms", "formal.bmc_ms", "formal.induct_base_ms", "formal.induct_step_ms"}

// report prints the human-readable metric lines and builds the result.
// Every timing of the timed loop is scaled by the run's host factor; the
// raw value is printed beside it.
func report(out io.Writer, spec *workloadSpec, m *measurement, rawSetupS float64, w workload, traced bool) result {
	res := result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metric{}}
	q := w.quality()
	calib := trimmedMean(m.calibMS, 0.1)
	f := m.hostFactor()
	fmt.Fprintf(out, "workload %s: %d rounds, %d %s attempted, %d failed (fail_pct %.2f%%)\n",
		spec.name, m.rounds, m.attempted, spec.item, m.failed, m.failPct())
	fmt.Fprintf(out, "host kernel %.3f ms (trimmed mean of %d), reference %.1f ms: timings x %.4f\n", calib, len(m.calibMS), refCalibMS, f)
	for _, k := range sortedKeys(q) {
		fmt.Fprintf(out, "  %-28s %12.4f\n", k, q[k])
	}

	if !traced {
		tailP, beyond := tailPercentile(len(m.lats))
		lats := append([]float64(nil), m.lats...)
		add := func(name, unit string, rawV, scale float64, note string) {
			res.Metrics[name] = metric{Value: rawV * scale, Unit: unit}
			fmt.Fprintf(out, "  %-28s %12.4f %-4s (raw %.4f)  %s\n", name, rawV*scale, unit, rawV, note)
		}
		// Set-up runs in other processes before the timed loop, so the
		// loop's host factor does not describe the host it ran on; in the
		// ten-run proof scaling widened setup_s's spread on three of four
		// workloads. setup_s is reported raw.
		add("setup_s", "s", rawSetupS, 1, fmt.Sprintf("median of %d set-ups, not host-scaled", setupSamples+1))
		add("items_per_s", "1/s", median(m.rates), 1/f, fmt.Sprintf("%s/s, median of %d rounds", spec.item, m.rounds))
		add("latency_p50_ms", "ms", percentile(lats, 50), f, fmt.Sprintf("n=%d", len(lats)))
		add("latency_tail_ms", "ms", percentile(lats, tailP), f, fmt.Sprintf("p%g, %d samples beyond, n=%d", tailP, beyond, len(lats)))
		res.Metrics["alloc_mb_per_item"] = metric{Value: m.allocMB, Unit: "MB"}
		fmt.Fprintf(out, "  %-28s %12.4f MB\n", "alloc_mb_per_item", m.allocMB)
		return res
	}

	n := float64(m.tracedN)
	vals := map[string]float64{}
	for _, l := range ledger {
		if l.time && n > 0 {
			vals[l.name] = m.layers[l.name] * f / n
		}
	}
	for k, v := range q {
		vals[k] = v
	}
	lc := w.layerCounts()
	for k, v := range lc {
		vals[k] = v
	}
	if n > 0 {
		vals["formal.solves_per_item"] = lc["formal.solves"] / n
		vals["formal.conflicts_per_item"] = lc["formal.conflicts"] / n
		vals["formal.propagations_per_item"] = lc["formal.propagations"] / n
	}
	formalMS := 0.0
	for _, l := range formalLayers {
		formalMS += m.layers[l]
	}
	if formalMS > 0 {
		vals["formal.props_per_ms"] = lc["formal.propagations"] / (formalMS * f)
	}
	vals["fail_pct"] = m.failPct()
	vals["host.calib_ms"] = calib
	vals["bench.trace_coverage_pct"] = pct(m.covered, m.tracedWall)
	vals["bench.trace_overhead_pct"] = m.overhead

	fmt.Fprintf(out, "per-layer ledger (%d traced %s; times are per item, reference-host ms):\n", m.tracedN, spec.item)
	fmt.Fprintf(out, "  %-30s %12s %-6s %7s  %-32s %s\n", "layer", "value", "unit", "share", "should move", "on")
	wallPerItem := m.tracedWall * f / n
	for _, l := range ledger {
		v := vals[l.name]
		res.Metrics[l.name] = metric{Value: v, Unit: l.unit}
		share := ""
		if l.time && wallPerItem > 0 {
			share = fmt.Sprintf("%6.2f%%", pct(v, wallPerItem))
		}
		fmt.Fprintf(out, "  %-30s %12.4f %-6s %7s  %-32s %s\n", l.name, v, l.unit, share, l.moves, l.on)
	}
	fmt.Fprintf(out, "  item wall %.4f ms; %d rounds, odd rounds traced\n", wallPerItem, m.rounds)
	return res
}
