package main

import (
	"bytes"
	"encoding/json"
	"math/big"
	"os"
	"reflect"
	"testing"
	"time"

	"phom/internal/core"
	"phom/internal/graph"
	"phom/internal/serve"
)

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for n := 0; n <= 3000; n++ {
		p, ok := tailPercentile(n)
		if !ok {
			if n >= 100 {
				t.Fatalf("n=%d: no tail percentile, but p90 leaves %d beyond", n, beyond(n, 90))
			}
			continue
		}
		if b := beyond(n, p); b < 10 {
			t.Fatalf("n=%d: p%g leaves %d samples beyond it", n, p, b)
		}
		for _, higher := range tailCandidates {
			if higher > p && beyond(n, higher) >= 10 {
				t.Fatalf("n=%d: chose p%g, but p%g also leaves 10 beyond", n, p, higher)
			}
		}
	}
	// The percentile itself: of 1..1000, p99 is 990 and 10 lie above it.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 99); got != 990 {
		t.Fatalf("p99 of 1..1000 = %v, want 990", got)
	}
	if p, _ := tailPercentile(1000); p != 99 {
		t.Fatalf("tail percentile of 1000 samples = p%g, want p99", p)
	}
}

func TestQuantilesRefuseThinTail(t *testing.T) {
	outs := make([]outcome, 999)
	for i := range outs {
		outs[i] = outcome{req: &request{}, status: 200, cpu: time.Duration(i+1) * time.Millisecond}
	}
	if _, _, err := quantiles(outs, 99, cpuOf); err == nil {
		t.Fatal("p99 of 999 samples accepted with 9 beyond it")
	}
	p50, p95, err := quantiles(outs, 95, cpuOf)
	if err != nil || p50 != 500 || p95 != 950 {
		t.Fatalf("quantiles(p95) = %v, %v, %v; want 500, 950, nil", p50, p95, err)
	}
	// Failed requests are not samples.
	outs[998].status = 500
	if _, _, err := quantiles(outs[:200], 95, cpuOf); err != nil {
		t.Fatalf("p95 of 200 samples: %v", err)
	}
	outs[199].status = 500
	if _, _, err := quantiles(outs[:200], 95, cpuOf); err == nil {
		t.Fatal("p95 accepted with 199 successful samples")
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	a := poissonSchedule(7, 200, 5*time.Second)
	b := poissonSchedule(7, 200, 5*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different arrival schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, 200, 5*time.Second)) {
		t.Fatal("different seeds gave the same arrival schedule")
	}
	if n := len(a); n != 1000 {
		t.Fatalf("%d arrivals at 200/s over 5s, want 1000", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 5*time.Second {
			t.Fatalf("arrival %d at %v is out of order or past the end", i, a[i])
		}
	}
}

func TestRequestsAreSeeded(t *testing.T) {
	gen := func() []*request {
		w := &reweightWarm{seed: 3}
		w.prepare()
		return w.requests("open", 60)
	}
	a, b := gen(), gen()
	for i := range a {
		if !bytes.Equal(a[i].body, b[i].body) {
			t.Fatalf("request %d differs between two generations from one seed", i)
		}
	}
}

// exactAnswer solves a small 2WP pair in the library.
func exactAnswer(t *testing.T) (answer, *structure) {
	t.Helper()
	g := graph.Path2WP(
		graph.Step{Label: "R", Forward: true}, graph.Step{Label: "S", Forward: true},
		graph.Step{Label: "R", Forward: true}, graph.Step{Label: "S", Forward: false})
	h := withProbs(g, []*big.Rat{big.NewRat(3, 16), big.NewRat(5, 16), big.NewRat(7, 16), big.NewRat(9, 16)})
	q := graph.Path1WP("R", "S")
	cp, err := core.Compile(q, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cp.EvaluateOpts(h.Probs(), optsExact)
	if err != nil {
		t.Fatal(err)
	}
	return answerOf(res), newStructure(q, h, cp)
}

func TestCheckerRejectsFlippedDigit(t *testing.T) {
	want, _ := exactAnswer(t)
	got := &serve.SolveResponse{Prob: want.rat, ProbFloat: want.float, Precision: "exact"}
	if err := checkAnswer(got, want); err != nil {
		t.Fatalf("the library's own answer was rejected: %v", err)
	}
	flipped := []byte(want.rat)
	for i, c := range flipped {
		if c >= '0' && c <= '9' {
			flipped[i] = '0' + (c-'0'+1)%10
			break
		}
	}
	got.Prob = string(flipped)
	if err := checkAnswer(got, want); err == nil {
		t.Fatalf("accepted %s for %s", got.Prob, want.rat)
	}
}

func TestCheckerRejectsEnclosureMissingExact(t *testing.T) {
	_, st := exactAnswer(t)
	res, err := st.cp.EvaluateOpts(st.h.Probs(), optsFast)
	if err != nil {
		t.Fatal(err)
	}
	want := answerOf(res)
	want.exact = evalExact(st, st.h.Probs())
	got := &serve.SolveResponse{Prob: want.rat, ProbFloat: want.float, Precision: "fast", ProbLo: &want.lo, ProbHi: &want.hi}
	if err := checkAnswer(got, want); err != nil {
		t.Fatalf("the library's own enclosure was rejected: %v", err)
	}
	// An enclosure just above the exact value, reported by a server and
	// expected by a reference that agree, must still fail.
	x := ratFloat(want.exact)
	lo, hi := x+1e-9, x+2e-9
	want.lo, want.hi = lo, hi
	got.ProbLo, got.ProbHi = &lo, &hi
	if err := checkAnswer(got, want); err == nil {
		t.Fatalf("accepted enclosure [%v, %v] missing %s", lo, hi, want.exact.RatString())
	}
}

func TestCensusRejectsDegenerateAnswers(t *testing.T) {
	var zero census
	for i := 0; i < 50; i++ {
		zero.add("0", 0)
	}
	if err := zero.degenerate(); err == nil {
		t.Fatal("an all-zero census passed")
	}
	var edge census
	for i := 0; i < 50; i++ {
		edge.add(big.NewRat(int64(i), 1e6).RatString(), float64(i)/1e6)
	}
	if err := edge.degenerate(); err == nil {
		t.Fatal("a census of answers below 0.001 passed")
	}
	var good census
	for i := 1; i < 50; i++ {
		good.add(big.NewRat(int64(i), 64).RatString(), float64(i)/64)
	}
	if err := good.degenerate(); err != nil {
		t.Fatalf("a spread-out census failed: %v", err)
	}
	var empty census
	if err := empty.degenerate(); err == nil {
		t.Fatal("an empty census passed")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json in step with the
// workload and metric tables of this package.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), here %q (%q)", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
	}
	// Each fixed tail percentile is the one the rule picks for the
	// samples the sequential phase holds at run_seconds: half its
	// requests on live-delta (reads or writes), all of them elsewhere,
	// and the write probe's on the workloads without writes.
	dur := time.Duration(bj.RunSeconds) * time.Second
	for _, w := range workloads {
		n := w.seqCount(dur)
		writes := probeCount(dur)
		if w.name == "live-delta" {
			n /= 2
			writes = n
		}
		if p, _ := tailPercentile(n); p != w.readTail {
			t.Errorf("%s: read tail p%g, but %d samples call for p%g", w.name, w.readTail, n, p)
		}
		if p, _ := tailPercentile(writes); p != w.writeTail {
			t.Errorf("%s: write tail p%g, but %d samples call for p%g", w.name, w.writeTail, writes, p)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d here", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		e := bj.EndToEnd[i]
		if e.Name != m.name || e.Unit != m.unit || e.Better != m.better || e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, here %+v", i, e, m)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d here", len(bj.PerLayer), len(perLayer))
	}
	for i, l := range perLayer {
		p := bj.PerLayer[i]
		if p.Name != l.name || p.Unit != l.unit || p.Better != l.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, here %+v", i, p, l)
		}
	}
}
