package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"

	"uvllm/internal/baseline"
	"uvllm/internal/core"
	"uvllm/internal/exp"
	"uvllm/internal/faultgen"
	"uvllm/internal/llm"
	"uvllm/internal/obs"
	"uvllm/internal/sim"
	"uvllm/internal/uvm"
)

// experimentsMD is the recorded paper-vs-measured table the evaluation
// must reproduce, read from the root of the checkout the benchmark runs
// in (cmd/expcheck checks the same rows).
const experimentsMD = "EXPERIMENTS.md"

// evalChunk is the instances per calibration chunk (~0.25 s of work on
// the reference host).
const evalChunk = 24

// evalWorkload is the research user's run: every benchmark instance
// through UVLLM, the four baselines and the expert validation, in
// passes over all 331 instances. Each pass gets a fresh compile cache
// and trace memo, so each pays the cold compiles and memo fills a real
// evaluation pays. The seed orders the instances within each pass; the
// records, and so Table II and the headline, may not depend on it.
type evalWorkload struct {
	nCli   int
	faults []*faultgen.Fault
	rng    *rand.Rand
	want   map[string]float64 // headline rows recorded in EXPERIMENTS.md

	cache *sim.Cache
	memo  *uvm.TraceMemo
	recs  []*exp.Record
	table string // FormatTable2 of the first pass

	mu        sync.Mutex
	hits      int64
	misses    int64
	memoHits  int64
	memoMiss  int64
	fixRate   float64
	coverage  float64
	iters     int
	calls     int
	tokens    int
	evaluated int
}

// newEvalWorkload is eval_table2's set-up: the 331-instance benchmark
// and the headline EXPERIMENTS.md records.
func newEvalWorkload(seed int64) (*evalWorkload, error) {
	want, err := readRecordedHeadline(experimentsMD)
	if err != nil {
		return nil, err
	}
	return &evalWorkload{nCli: nproc(), rng: rand.New(rand.NewSource(seed)), faults: faultgen.Benchmark(), want: want}, nil
}

func (w *evalWorkload) clients() int { return w.nCli }

func (w *evalWorkload) round(r int) [][]int {
	return chunked(w.rng.Perm(len(w.faults)), evalChunk)
}

func (w *evalWorkload) beginRound(r int, traced bool) {
	w.cache, w.memo = sim.NewCache(), uvm.NewTraceMemo()
	w.recs = make([]*exp.Record, len(w.faults))
}

func (w *evalWorkload) services() baseline.SimServices {
	return baseline.SimServices{Backend: sim.BackendCompiled, Cache: w.cache, Memo: w.memo}
}

// do evaluates one instance. Untraced, it is exp.Run over that one
// instance (the pass's clients are the run's workers); traced, it
// replays exp's per-instance public calls one by one and times each.
func (w *evalWorkload) do(id int, traced bool) outcome {
	f := w.faults[id]
	start := time.Now()
	if !traced {
		recs := exp.Run(exp.Config{
			Seed: 1, Mode: llm.ModePair, Instances: []*faultgen.Fault{f},
			Workers: 1, Backend: sim.BackendCompiled, Cache: w.cache, Memo: w.memo,
		})
		w.recs[id] = recs[0]
		return outcome{lat: time.Since(start)}
	}
	rec, layers, covered := w.replay(f)
	w.recs[id] = rec
	return outcome{lat: time.Since(start), layers: layers, covered: covered}
}

// replay is runOne of internal/exp spelled out through public calls, so
// each layer can be timed: core.Verify (traced into its phases), the
// MEIC, raw-LLM and template baselines, and every exp.ExpertPass check.
// Its records must give exactly exp.Table2's numbers, which endRound
// checks, so the replay cannot drift from what exp.Run does.
func (w *evalWorkload) replay(f *faultgen.Fault) (*exp.Record, map[string]float64, float64) {
	m := f.Meta()
	svc := w.services()
	oracle := func() *llm.Oracle {
		return llm.NewOracle(llm.Knowledge{
			FaultID: f.ID, Golden: f.Golden, Class: string(f.Class),
			Complexity: m.Complexity, IsFSM: m.IsFSM,
		}, llm.DefaultProfile(), 1)
	}
	layers := map[string]float64{}
	covered := 0.0
	timed := func(layer string, fn func()) {
		t := time.Now()
		fn()
		d := msSince(t)
		layers[layer] += d
		covered += d
	}
	expert := func(hit bool, src string) bool {
		if !hit {
			return false
		}
		var ok bool
		timed("exp.expert_ms", func() { ok = exp.ExpertPass(src, m, svc) })
		return ok
	}

	rec := &exp.Record{Fault: f}
	tracer := obs.NewTracer("")
	root := tracer.Start("verify")
	rec.UVLLM = core.Verify(obs.ContextWith(context.Background(), root), core.Input{
		Source: f.Source, Spec: m.Spec, Top: m.Top, Clock: m.Clock,
		RefName: m.Name, ModuleName: m.Name, Client: oracle(),
		Opts: core.Options{Seed: 1, Mode: llm.ModePair, Backend: sim.BackendCompiled, Cache: w.cache, Memo: w.memo},
	})
	root.End()
	vl, vc := spanLayers(tracer.Spans())
	for k, v := range vl {
		layers[k] += v
	}
	covered += vc
	rec.UVLLMFix = expert(rec.UVLLM.Success, rec.UVLLM.Final)

	timed("baseline.meic_ms", func() {
		x := baseline.NewMEIC(oracle())
		x.Sim = svc
		rec.MEIC = x.Repair(f)
	})
	rec.MEICFix = expert(rec.MEIC.Hit, rec.MEIC.Final)
	timed("baseline.raw_ms", func() {
		x := baseline.NewRawLLM(oracle())
		x.Sim = svc
		rec.Raw = x.Repair(f)
	})
	rec.RawFix = expert(rec.Raw.Hit, rec.Raw.Final)
	if !f.Class.IsSyntax() {
		var so, ro baseline.Outcome
		timed("baseline.template_ms", func() {
			s := baseline.NewStrider()
			s.Sim = svc
			so = s.Repair(f)
			r := baseline.NewRTLRepair()
			r.Sim = svc
			ro = r.Repair(f)
		})
		rec.Strider, rec.RTLRepair = &so, &ro
		rec.StriderFix = expert(so.Hit, so.Final)
		rec.RTLRepairFix = expert(ro.Hit, ro.Final)
	}
	return rec, layers, covered
}

// endRound is the pass's output check: Table II and the headline from
// this pass's records must equal what EXPERIMENTS.md records, and Table
// II must be byte-identical to the first pass's.
func (w *evalWorkload) endRound(r int, traced bool) error {
	for i, rec := range w.recs {
		if rec == nil {
			return fmt.Errorf("instance %s was not evaluated", w.faults[i].ID)
		}
	}
	rows := exp.Table2(w.recs)
	table := exp.FormatTable2(rows)
	h := headline(rows, w.recs)
	c, m := w.cache.Stats(), w.memo.Stats()

	w.mu.Lock()
	w.hits += c.Hits
	w.misses += c.Misses
	w.memoHits += m.Hits
	w.memoMiss += m.Misses
	w.fixRate, w.coverage = h.OverallFR, h.MeanCoverage
	for _, rec := range w.recs {
		w.iters += rec.UVLLM.Iterations
		w.calls += rec.UVLLM.Usage.Calls
		w.tokens += rec.UVLLM.Usage.InputTokens + rec.UVLLM.Usage.OutputTokens
	}
	w.evaluated += len(w.recs)
	w.mu.Unlock()

	if w.table == "" {
		w.table = table
	} else if table != w.table {
		return fmt.Errorf("Table II differs from the first pass's:\n%s\nfirst pass:\n%s", table, w.table)
	}
	return compareHeadline(parseHeadline(exp.FormatHeadline(h)), w.want)
}

// headline is exp.Session.ComputeHeadline over an explicit record set:
// the Table II aggregates, the UVLLM hit-minus-fix gaps and the mean
// port coverage of instances that reached simulation.
func headline(rows []exp.Table2Row, recs []*exp.Record) exp.Headline {
	var h exp.Headline
	for _, r := range rows {
		switch r.Group {
		case "Syntax":
			h.SyntaxFR = r.FR
		case "Function":
			h.FuncFR = r.FR
		case "Overall":
			h.OverallFR = r.FR
			h.Speedup = r.Speedup
		}
	}
	var synN, synHit, fnN, fnHit int
	cov, covN := 0.0, 0
	for _, r := range recs {
		if r.Fault.Class.IsSyntax() {
			synN++
			if r.UVLLM.Success {
				synHit++
			}
		} else {
			fnN++
			if r.UVLLM.Success {
				fnHit++
			}
		}
		if r.UVLLM.Coverage > 0 {
			cov += r.UVLLM.Coverage
			covN++
		}
	}
	h.SyntaxHRFRGap = pct(float64(synHit), float64(synN)) - h.SyntaxFR
	h.FuncHRFRGap = pct(float64(fnHit), float64(fnN)) - h.FuncFR
	if covN > 0 {
		h.MeanCoverage = cov / float64(covN)
	}
	return h
}

func (w *evalWorkload) quality() map[string]float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := float64(w.evaluated)
	return map[string]float64{
		"fix_rate_pct":             w.fixRate,
		"coverage_pct":             w.coverage,
		"core.iterations_per_item": float64(w.iters) / n,
		"llm.calls_per_item":       float64(w.calls) / n,
		"llm.tokens_per_item":      float64(w.tokens) / n,
	}
}

func (w *evalWorkload) layerCounts() map[string]float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return map[string]float64{
		"sim.cache_hit_pct": pct(float64(w.hits), float64(w.hits+w.misses)),
		"uvm.memo_hit_pct":  pct(float64(w.memoHits), float64(w.memoHits+w.memoMiss)),
	}
}

// headlineRowRe matches exp.FormatHeadline rows:
//
//	"  Syntax FR                    paper    86.99%   measured    87.79%"
var headlineRowRe = regexp.MustCompile(`^\s{2}(\S.*?)\s+paper\s+\S+\s+measured\s+([0-9.+-]+)`)

// parseHeadline reads the measured column of exp.FormatHeadline output.
func parseHeadline(text string) map[string]float64 {
	out := map[string]float64{}
	for _, ln := range strings.Split(text, "\n") {
		m := headlineRowRe.FindStringSubmatch(strings.TrimRight(ln, "%x \t"))
		if m == nil {
			continue
		}
		if v, err := strconv.ParseFloat(strings.Trim(m[2], "%x"), 64); err == nil {
			out[metricKey(m[1])] = v
		}
	}
	return out
}

// readRecordedHeadline reads the measured column of the markdown
// headline table ("| Syntax FR | 86.99% | 87.79% |").
func readRecordedHeadline(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("reading the recorded headline: %w", err)
	}
	defer f.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		cells := strings.Split(strings.Trim(strings.TrimSpace(sc.Text()), "|"), "|")
		if len(cells) != 3 {
			continue
		}
		name := metricKey(cells[0])
		meas := strings.Trim(strings.TrimSpace(cells[2]), "%×x~")
		if v, err := strconv.ParseFloat(meas, 64); err == nil && name != "metric" {
			out[name] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no headline table in %s", path)
	}
	return out, nil
}

// compareHeadline requires every recorded row the headline also prints
// to match at the printed precision, and at least one shared row.
func compareHeadline(got, want map[string]float64) error {
	shared := 0
	var bad []string
	for _, name := range sortedKeys(want) {
		g, ok := got[name]
		if !ok {
			continue
		}
		shared++
		if math.Abs(g-want[name]) > 0.005 {
			bad = append(bad, fmt.Sprintf("%s: recorded %.2f, measured %.2f", name, want[name], g))
		}
	}
	if shared == 0 {
		return fmt.Errorf("the headline shares no rows with %s", experimentsMD)
	}
	if len(bad) > 0 {
		return fmt.Errorf("headline differs from %s: %s", experimentsMD, strings.Join(bad, "; "))
	}
	return nil
}

// metricKey canonicalizes a headline row name (Unicode minus, case,
// inner whitespace).
func metricKey(name string) string {
	name = strings.ReplaceAll(name, "−", "-")
	return strings.Join(strings.Fields(strings.ToLower(name)), " ")
}
