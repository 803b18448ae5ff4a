package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"uvllm/internal/dataset"
	"uvllm/internal/faultgen"
	"uvllm/internal/obs"
	"uvllm/internal/service"
	"uvllm/internal/sim"
	"uvllm/internal/uvm"
)

// proveDepth is jobs_prove's k-induction depth. At the default depth 8
// one memory-design proof (lifo_stack) takes about 2 s, eight times a
// calibration chunk: the host kernel then samples the host only between
// proofs, not while they run, and a pass over the 331 instances takes
// 35 s, one per run. At depth 6 the same proof takes about 0.35 s, still
// 35 times a median job, and the induction step still dominates.
const proveDepth = 6

// jobsWorkload drives uvllmd's HTTP API in-process: nproc closed-loop
// clients POST a JobSpec, wait on the runner's job for the terminal
// state and GET the job view.
//
// Traced rounds go to a second server over the same compile cache and
// trace memo whose runner traces every job through the slow-span
// sampler with a 1 ns threshold (uvllmd -slowspan): every span reaches
// the benchmark through a callback, and the job's event stream, which
// the waiting client wakes on, carries no span events.
type jobsWorkload struct {
	prove  bool
	nCli   int
	srv    *service.Server   // untraced rounds
	tsrv   *service.Server   // traced rounds
	treg   *obs.Registry     // the traced server's registry: solver work of traced rounds
	specs  []service.JobSpec // one per benchmark instance, in benchmark order
	rng    *rand.Rand        // orders each round
	chunk  int               // items per chunk
	byMod  [][]int           // jobs_prove: spec indexes per module, in benchmark order
	cache  *sim.Cache
	memo   *uvm.TraceMemo
	cache0 sim.CacheStats
	memo0  uvm.TraceMemoStats

	spanMu sync.Mutex
	spans  map[string][]obs.SpanInfo // traced server's spans by job ID

	mu      sync.Mutex
	seen    map[int][]byte // first Result bytes per spec index
	n       int
	success int
	proved  int
	cov     float64
	iters   int
	calls   int
	tokens  int
}

// newJobsWorkload is the job workloads' set-up: generate the spec stream
// from the seed, build the server, and warm the 27 goldens into its
// compile cache and trace memo.
func newJobsWorkload(seed int64, prove bool) (*jobsWorkload, error) {
	w := &jobsWorkload{prove: prove, nCli: nproc(), seen: map[int][]byte{}, spans: map[string][]obs.SpanInfo{}}
	faults := faultgen.Benchmark()
	cells := map[string][]*faultgen.Fault{}
	for _, f := range faults {
		key := f.Module + "/" + string(f.Class)
		fs, ok := cells[key]
		if !ok {
			fs = faultgen.Generate(f.Meta(), f.Class)
			cells[key] = fs
		}
		variant := -1
		for i, g := range fs {
			if g.ID == f.ID {
				variant = i
				break
			}
		}
		if variant < 0 {
			return nil, fmt.Errorf("instance %s is not among its class's generated variants", f.ID)
		}
		spec := service.JobSpec{Module: f.Module, Inject: string(f.Class), Variant: variant}
		if prove {
			spec.Options.Induction = true
			spec.Options.FormalDepth = proveDepth
		}
		w.specs = append(w.specs, spec)
	}
	// Every round submits all 331 specs, so every round (and every
	// seed) does the same work: a memory-design proof costs as much as
	// dozens of median jobs, so any smaller sample would make the
	// workload's cost depend on the seed.
	w.rng = rand.New(rand.NewSource(seed))
	w.chunk = 48
	if prove {
		w.chunk = 2 * w.nCli
		mods := map[string]int{}
		for i, spec := range w.specs {
			if _, ok := mods[spec.Module]; !ok {
				mods[spec.Module] = len(w.byMod)
				w.byMod = append(w.byMod, nil)
			}
			w.byMod[mods[spec.Module]] = append(w.byMod[mods[spec.Module]], i)
		}
	}

	w.cache, w.memo, w.treg = sim.NewCache(), uvm.NewTraceMemo(), obs.NewRegistry()
	w.srv = service.NewServer(service.RunnerConfig{
		Workers:  w.nCli,
		Services: service.Services{Cache: w.cache, Memo: w.memo},
	})
	w.tsrv = service.NewServer(service.RunnerConfig{
		Workers:  w.nCli,
		Services: service.Services{Cache: w.cache, Memo: w.memo, Obs: w.treg},
		SlowSpan: time.Nanosecond,
		OnSlowSpan: func(id string, sp obs.SpanInfo) {
			w.spanMu.Lock()
			w.spans[id] = append(w.spans[id], sp)
			w.spanMu.Unlock()
		},
	})
	svc := w.srv.Runner().Services()
	for _, m := range dataset.All() {
		if res := service.Execute(service.JobSpec{Module: m.Name}, svc, nil); res.Error != "" {
			return nil, fmt.Errorf("warming golden %s: %s", m.Name, res.Error)
		}
	}
	w.cache0, w.memo0 = w.cache.Stats(), w.memo.Stats()
	return w, nil
}

func (w *jobsWorkload) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	// Every job is terminal by now: Drain only stops the workers.
	_ = w.srv.Drain(ctx)
	_ = w.tsrv.Drain(ctx)
}

func (w *jobsWorkload) clients() int { return w.nCli }

// round returns all specs: for jobs_repair in a fresh seeded order; for
// jobs_prove module by module, the modules in a fresh seeded order and
// each module's jobs in benchmark order, chunked within the module. A
// chunk's composition then does not depend on the seed: the long proofs
// of a memory module share chunks only with each other, and a client
// never idles at a barrier for a whole proof because its chunk partner
// drew a millisecond job under one seed and a proof under another.
func (w *jobsWorkload) round(r int) [][]int {
	if !w.prove {
		return chunked(w.rng.Perm(len(w.specs)), w.chunk)
	}
	var out [][]int
	for _, m := range w.rng.Perm(len(w.byMod)) {
		out = append(out, chunked(w.byMod[m], w.chunk)...)
	}
	return out
}

func (w *jobsWorkload) beginRound(r int, traced bool) {}

func (w *jobsWorkload) endRound(r int, traced bool) error { return nil }

// do is one client turn: POST the spec, wait for the terminal state,
// GET the job view, and check the result against earlier runs of the
// same spec.
func (w *jobsWorkload) do(id int, traced bool) outcome {
	srv := w.srv
	if traced {
		srv = w.tsrv
	}
	body, err := json.Marshal(w.specs[id])
	if err != nil {
		return outcome{failed: true, why: err.Error()}
	}
	start := time.Now()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	httpMS := msSince(start)
	if rec.Code != http.StatusAccepted {
		return outcome{lat: time.Since(start), failed: true, why: fmt.Sprintf("submit refused: %d %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))}
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
		return outcome{lat: time.Since(start), failed: true, why: "submit response: " + err.Error()}
	}
	job, ok := srv.Runner().Job(sub.ID)
	if !ok {
		return outcome{lat: time.Since(start), failed: true, why: "submitted job " + sub.ID + " not found"}
	}
	waitStart := time.Now()
	_, err = job.WaitTerminal(context.Background())
	waitMS := msSince(waitStart)
	if err != nil {
		return outcome{lat: time.Since(start), failed: true, why: err.Error()}
	}
	rec = httptest.NewRecorder()
	get := time.Now()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+sub.ID, nil))
	lat := time.Since(start)
	httpMS += msSince(get)
	out := outcome{lat: lat}
	var view service.JobView
	if rec.Code != http.StatusOK {
		out.failed, out.why = true, fmt.Sprintf("status refused: %d", rec.Code)
		return out
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		out.failed, out.why = true, "status response: "+err.Error()
		return out
	}
	if !view.Status.Terminal() || view.Result == nil {
		out.failed, out.why = true, fmt.Sprintf("job %s ended %s without a result", sub.ID, view.Status)
		return out
	}
	res := *view.Result
	if res.Error != "" || res.Cancelled {
		out.failed, out.why = true, fmt.Sprintf("job %s: error %q cancelled=%v", sub.ID, res.Error, res.Cancelled)
		return out
	}
	if err := w.record(id, res); err != nil {
		out.failed, out.why = true, err.Error()
		return out
	}
	if traced {
		w.spanMu.Lock()
		spans := w.spans[sub.ID]
		delete(w.spans, sub.ID)
		w.spanMu.Unlock()
		out.layers, out.covered = spanLayers(spans)
		for _, sp := range spans {
			if sp.Parent == 0 {
				out.layers["service.wait_ms"] = waitMS - view.QueueWaitMS - ms64(sp.Dur)
			}
		}
		out.layers["service.queue_wait_ms"] = view.QueueWaitMS
		out.layers["service.http_ms"] = httpMS
		out.covered += view.QueueWaitMS + httpMS
	}
	return out
}

// record folds one result into the quality tallies and checks that it is
// byte-identical to the first result of the same spec in this run.
func (w *jobsWorkload) record(id int, res service.Result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if first, ok := w.seen[id]; ok && !bytes.Equal(first, b) {
		return fmt.Errorf("spec %d (%s/%s-%d): result differs from its earlier run",
			id, w.specs[id].Module, w.specs[id].Inject, w.specs[id].Variant)
	} else if !ok {
		w.seen[id] = b
	}
	w.n++
	if res.Success {
		w.success++
	}
	if res.Formal == "proved" {
		w.proved++
	}
	w.cov += res.Coverage
	w.iters += res.Iterations
	w.calls += res.Usage.Calls
	w.tokens += res.Usage.InputTokens + res.Usage.OutputTokens
	return nil
}

func (w *jobsWorkload) quality() map[string]float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := float64(w.n)
	q := map[string]float64{
		"fix_rate_pct":             pct(float64(w.success), n),
		"proved_pct":               pct(float64(w.proved), n),
		"core.iterations_per_item": float64(w.iters) / n,
		"llm.calls_per_item":       float64(w.calls) / n,
		"llm.tokens_per_item":      float64(w.tokens) / n,
	}
	if w.n > 0 {
		q["coverage_pct"] = w.cov / n
	}
	return q
}

func (w *jobsWorkload) layerCounts() map[string]float64 {
	c, m := w.cache.Stats(), w.memo.Stats()
	sw := readSolverWork(w.treg)
	ch, cm := c.Hits-w.cache0.Hits, c.Misses-w.cache0.Misses
	mh, mm := m.Hits-w.memo0.Hits, m.Misses-w.memo0.Misses
	return map[string]float64{
		"sim.cache_hit_pct":   pct(float64(ch), float64(ch+cm)),
		"uvm.memo_hit_pct":    pct(float64(mh), float64(mh+mm)),
		"formal.solves":       float64(sw.solves),
		"formal.conflicts":    sw.conflicts,
		"formal.propagations": sw.propagations,
	}
}

// solverWork is the registry's solver histograms: one observation per
// SAT call, summing conflicts and propagations.
type solverWork struct {
	solves                  uint64
	conflicts, propagations float64
}

func readSolverWork(reg *obs.Registry) solverWork {
	var sw solverWork
	for _, m := range reg.Snapshot() {
		for _, s := range m.Series {
			switch m.Name {
			case "solver_conflicts":
				sw.solves = s.Count
				sw.conflicts = s.Sum
			case "solver_propagations":
				sw.propagations = s.Sum
			}
		}
	}
	return sw
}

// spanLayer maps the program's span names to ledger layers. Spans not
// listed (the root "job" span) are not a layer: their self time is the
// pipeline glue between phases, reported as core.verify_ms and left out
// of the coverage figure.
var spanLayer = map[string]string{
	"setup":       "service.setup_ms",
	"preprocess":  "core.preprocess_ms",
	"iteration":   "core.iteration_ms",
	"final_eval":  "core.iteration_ms",
	"uvm_compile": "uvm.compile_ms",
	"uvm_run":     "uvm.run_ms",
	"locate":      "locate.ms",
	"llm":         "llm.ms",
	"formal":      "formal.ms",
	"blast":       "formal.blast_ms",
	"bmc_depth":   "formal.bmc_ms",
	"induct_base": "formal.induct_base_ms",
	"induct_step": "formal.induct_step_ms",
}

// spanLayers turns one job's span tree into per-layer self times (raw
// ms) and the part of the job those layers cover. A span's self time is
// its duration minus the time its children cover.
func spanLayers(spans []obs.SpanInfo) (map[string]float64, float64) {
	child := map[int64]time.Duration{}
	for _, sp := range spans {
		if sp.Parent != 0 {
			child[sp.Parent] += sp.Dur
		}
	}
	layers := map[string]float64{}
	covered := 0.0
	for _, sp := range spans {
		self := ms64(sp.Dur - child[sp.ID])
		if name, ok := spanLayer[sp.Name]; ok {
			layers[name] += self
			covered += self
		} else if sp.Parent == 0 {
			layers["core.verify_ms"] += self
		}
	}
	return layers, covered
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
