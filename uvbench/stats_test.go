package main

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"uvllm/internal/dataset"
	"uvllm/internal/service"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for n := 21; n <= 30000; n += 1 + n/50 {
		p, beyond := tailPercentile(n)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		v := percentile(xs, p)
		above := 0
		for _, x := range xs {
			if x > v {
				above++
			}
		}
		if above != beyond || beyond < minBeyond {
			t.Fatalf("n=%d: p%g has %d samples beyond (reported %d), want >= %d", n, p, above, beyond, minBeyond)
		}
		// The next rung up must not also qualify: the tail is the highest.
		for i, rung := range tailLadder {
			if rung == p && i > 0 {
				if b := n - 1 - rankIndex(n, tailLadder[i-1]); b >= minBeyond {
					t.Fatalf("n=%d: p%g reported but p%g has %d beyond", n, p, tailLadder[i-1], b)
				}
			}
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}, {5, 50}} {
		if p, _ := tailPercentile(c.n); p != c.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", c.n, p, c.want)
		}
	}
}

func TestHostScale(t *testing.T) {
	if got := hostScale(refCalibMS); got != 1 {
		t.Errorf("reference host: scale %g, want 1", got)
	}
	// A host running the kernel twice as slowly runs uvllm twice as
	// slowly: its raw timings halve on the reference scale.
	if got := hostScale(2 * refCalibMS); got != 0.5 {
		t.Errorf("half-speed host: scale %g, want 0.5", got)
	}
	if got := hostScale(0); got != 1 {
		t.Errorf("no calibration: scale %g, want 1", got)
	}
	// The run factor weighs kernel runs equally once the slowest and the
	// fastest tenth are dropped: a burst that slowed three in ten kernel
	// runs twofold slowed the run, a single slow run did not.
	r := refCalibMS
	calib := []float64{r, r, r, r, r, r, r, 2 * r, 2 * r, 2 * r}
	m := &measurement{calibMS: calib}
	if got := m.hostFactor(); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("host factor %g, want 0.8", got)
	}
	calib[7], calib[8], calib[9] = r, r, 40*r
	if got := m.hostFactor(); got != 1 {
		t.Errorf("host factor with one outlier %g, want 1", got)
	}
}

func TestKernelAllocatesNothing(t *testing.T) {
	k := newHostKernel(2)
	defer k.stop()
	if allocs := testing.AllocsPerRun(5, func() { k.run() }); allocs != 0 {
		t.Errorf("host kernel allocates %g objects per run, want 0", allocs)
	}
}

// fakeWorkload fails chosen items and chosen rounds.
type fakeWorkload struct {
	failItem  map[int]bool
	failRound map[int]bool
}

func (f *fakeWorkload) clients() int                    { return 2 }
func (f *fakeWorkload) round(r int) [][]int             { return [][]int{{0, 1, 2}, {3, 4}} }
func (f *fakeWorkload) beginRound(r int, traced bool)   {}
func (f *fakeWorkload) quality() map[string]float64     { return nil }
func (f *fakeWorkload) layerCounts() map[string]float64 { return nil }
func (f *fakeWorkload) do(id int, traced bool) outcome {
	return outcome{lat: time.Millisecond, failed: f.failItem[id], why: "injected"}
}
func (f *fakeWorkload) endRound(r int, traced bool) error {
	if f.failRound[r] {
		return errors.New("injected round failure")
	}
	return nil
}

func TestFailureCounting(t *testing.T) {
	k := newHostKernel(1)
	defer k.stop()
	stderr = &strings.Builder{}
	// Items 1 and 3 fail in every round; round 1's output check fails,
	// which fails all five of its items.
	w := &fakeWorkload{failItem: map[int]bool{1: true, 3: true}, failRound: map[int]bool{1: true}}
	m := measure(w, k, 1e-9, false)
	rounds := m.rounds
	want := tally{attempted: 5 * rounds, failed: 2*rounds + 3}
	if rounds < 2 {
		t.Fatalf("ran %d rounds, want at least 2 (minItems is %d)", rounds, minItems)
	}
	if m.tally != want {
		t.Fatalf("tally %+v over %d rounds, want %+v", m.tally, rounds, want)
	}
	if got, wantPct := m.failPct(), 100*float64(want.failed)/float64(want.attempted); math.Abs(got-wantPct) > 1e-9 {
		t.Errorf("failPct %g, want %g", got, wantPct)
	}
}

// TestRefusedSubmissionCountsAsFailed drains the server first, so the
// POST is refused with 503: the item must count as failed.
func TestRefusedSubmissionCountsAsFailed(t *testing.T) {
	srv := service.NewServer(service.RunnerConfig{Workers: 1})
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	w := &jobsWorkload{
		srv:   srv,
		specs: []service.JobSpec{{Module: dataset.All()[0].Name}},
		seen:  map[int][]byte{},
	}
	out := w.do(0, false)
	if !out.failed || !strings.Contains(out.why, "503") {
		t.Fatalf("refused submission: failed=%v why=%q, want a failed 503", out.failed, out.why)
	}
}
