// Command perfbench is the repository benchmark: it drives the
// phomserve and phomgate binaries built from this checkout with seeded
// workloads, checks every answer against the library, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as one
// JSON object on the last line of its output.
//
// Run it from the repository root through its wrapper, which builds
// the binaries first:
//
//	bash perfbench/run.sh --workload reweight-warm --seed 1 --seconds 12 --trace 0
//
// --workload all runs every workload in turn and prints one line per
// workload before the combined JSON object. The exit code is nonzero
// when a run fails or any answer is wrong or degenerate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// A run sets the servers up at least minSetupRounds times and until
// setupBudget has passed, at most maxSetupRounds times; setup_s is the
// median.
const (
	minSetupRounds = 3
	maxSetupRounds = 25
	setupBudget    = 2 * time.Second
)

// measureHeap is the generator heap at which its collector runs even
// while a phase is being measured.
const measureHeap = 768 << 20

// Shares of --seconds: the open-loop phase and the closed-loop phase.
// The sequential phase in between sends a fixed number of requests per
// measured second (workload.seq), which takes most of the rest.
const (
	openShare   = 0.25
	closedShare = 0.30
)

// closedCalSamples is the number of reference samples taken before the
// closed loop, and again after it.
const closedCalSamples = 25

// endToEnd lists the end-to-end metrics every measured run reports, as
// BENCHMARK.json does. Times are CPU time of the server processes
// (phomserve, and phomgate where the workload is gated) rather than wall
// time: on a machine shared with other tenants, wall time moves with
// their load by more than the bounds allow, while CPU time mostly does
// not. setup_s is the servers' CPU time from their start until the
// warm-up is answered, the work a later change could move into set-up
// (its wall time, on standard error, moved by half between sets of
// runs of the same code). read_cpu_* and write_cpu_* are per request, from the sequential
// phase; writes are delta batches, the workload's own on live-delta and
// the write probe's elsewhere. Beside the tail they report the mean, not
// the median: every workload's mix is deliberately heterogeneous (fast
// and exact reweights; four sizes and classes of compile; probability
// drifts and structural batches), and the median of such a mix jumps
// between its modes with what the seed drew (a fifth of the median
// between seeds on compile-cold), while the mean moves smoothly.
// loaded_cpu_ms is per successful request in the closed-loop phase,
// with as many requests in flight as there are CPUs. All CPU times are
// scaled to an idle machine by the reference server (calibrate.go).
// ok_share is succeeded over attempted requests, the complement of the
// error share, so that it is never 0.
var endToEnd = []struct{ name, unit, better string }{
	{"setup_s", "s", "lower"},
	{"read_cpu_mean_ms", "ms", "lower"},
	{"read_cpu_tail_ms", "ms", "lower"},
	{"write_cpu_mean_ms", "ms", "lower"},
	{"write_cpu_tail_ms", "ms", "lower"},
	{"loaded_cpu_ms", "ms", "lower"},
	{"ok_share", "ratio", "higher"},
	{"rss_mb", "MiB", "lower"},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name, or all")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 12, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer breakdown instead")
		bin     = flag.String("bin", "", "directory holding the phomserve and phomgate binaries")
		ref     = flag.Bool("reference", false, "run as the reference server on -addr (the benchmark starts it)")
		addr    = flag.String("addr", "", "listen address of the reference server")
	)
	flag.Parse()
	if *ref {
		fmt.Fprintln(os.Stderr, "perfbench: reference server:", serveReference(*addr))
		os.Exit(1)
	}
	if *bin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -bin, -seconds >= 1 and -trace 0|1")
		os.Exit(2)
	}
	var ws []workload
	if *name == "all" {
		ws = workloads
	} else if w, ok := findWorkload(*name); ok {
		ws = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range ws {
		var res result
		var err error
		if *trace == 1 {
			res, err = runTraced(w, *seed, time.Duration(*seconds)*time.Second, *bin)
		} else {
			res, err = runMeasured(w, *seed, time.Duration(*seconds)*time.Second, *bin)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		if len(ws) == 1 {
			total = res
			break
		}
		printLine(w.name, res)
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, m := range res.Metrics {
			total.Metrics[w.name+"."+k] = m
		}
	}
	out, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !total.Correct {
		os.Exit(1)
	}
}

// printLine prints one workload's metrics by name and unit.
func printLine(name string, res result) {
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("%s correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
	for _, k := range keys {
		fmt.Printf(" %s=%.6g%s", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Println()
}

// setUp starts the tier and runs the warm-up, minRounds times and then
// until budget has passed (at most maxRounds times), keeping the last
// tier running, and returns it with its sender, the median CPU time the
// servers spent from their start until the warm-up was answered, and the
// median wall time of the same span. When cal is not nil it takes a
// reference sample after each round.
func setUp(w workload, m mix, bin string, minRounds, maxRounds int, budget time.Duration, cal *calibrator) (*tier, *sender, float64, float64, error) {
	var cpu, wall []float64
	begin := time.Now()
	for k := 0; ; k++ {
		start := time.Now()
		t, err := startTier(bin, w.gated)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		s := newSender(t.front(), "perfbench")
		if err := m.warm(s); err != nil {
			s.close()
			t.stop()
			return nil, nil, 0, 0, err
		}
		wall = append(wall, time.Since(start).Seconds())
		c, err := t.cpuTime()
		if err == nil && cal != nil {
			err = cal.sample()
		}
		if err != nil {
			s.close()
			t.stop()
			return nil, nil, 0, 0, err
		}
		cpu = append(cpu, c.Seconds())
		if k+1 >= maxRounds || (k+1 >= minRounds && time.Since(begin) >= budget) {
			return t, s, median(cpu), median(wall), nil
		}
		s.close()
		t.stop()
	}
}

// runMeasured is the end-to-end run: set-up, the write probe where the
// workload has no writes of its own, an open-loop phase at the
// workload's fixed rate, a sequential phase, a closed-loop phase, then
// the correctness check. The open and closed loops' wall-clock latency
// and throughput go to standard error; they are not metrics, because
// they move with the machine's other tenants.
func runMeasured(w workload, seed int64, dur time.Duration, bin string) (result, error) {
	t0 := time.Now()
	m := w.make(seed)
	m.prepare()
	openDur := time.Duration(float64(dur) * openShare)
	closedDur := time.Duration(float64(dur) * closedShare)
	sched := poissonSchedule(seed, w.rate, openDur)
	openReqs := m.requests("open", len(sched))
	seqReqs := m.requests("seq", w.seqCount(dur))
	closedReqs := m.requests("closed", w.closedPool)
	_, live := m.(*liveDelta)
	var probe *writeProbe
	var probeReqs []*request
	if !live {
		probe = newWriteProbe()
		probeReqs = probe.requests(seed, probeCount(dur))
	}

	tGen := time.Since(t0)
	ref, err := spawn(bin, "perfbench", "-reference")
	if err != nil {
		return result{}, err
	}
	defer ref.stop()
	body := refBody()
	setupCal, probeCal, seqCal, closedCal := newCalibrator(ref, body), newCalibrator(ref, body), newCalibrator(ref, body), newCalibrator(ref, body)
	defer setupCal.s.close()
	defer probeCal.s.close()
	defer seqCal.s.close()
	defer closedCal.s.close()
	t, s, setupCPU, setupWall, err := setUp(w, m, bin, minSetupRounds, maxSetupRounds, setupBudget, setupCal)
	if err != nil {
		return result{}, err
	}
	for _, p := range []*proc{t.serve, t.gate} {
		if p != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s %v\n", p.name, p.args)
		}
	}
	defer t.stop()
	defer s.close()
	// The generator's own garbage collector stays off while it measures,
	// so its pauses do not show as server latency, unless its heap nears
	// measureHeap; it is back on for the check.
	runtime.GC()
	gcPercent, memLimit := debug.SetGCPercent(-1), debug.SetMemoryLimit(measureHeap)
	// The write probe runs first, on the freshly set-up servers, so it
	// measures the write path itself rather than the state the read
	// phases leave behind.
	var probeOut []outcome
	var ps *sender
	if probe != nil {
		ps = newSender(t.front(), "probe")
		defer ps.close()
		if err := probe.start(ps); err != nil {
			return result{}, err
		}
		if probeOut, err = ps.sequential(probeReqs, t.cpuTime, probeCal); err != nil {
			return result{}, err
		}
	}
	open := s.openLoop(openReqs, sched)
	// Memory is sampled over the sequential phase, whose requests and
	// their order the seed fixes.
	stopRSS := t.sampleRSS(20 * time.Millisecond)
	seq, err := s.sequential(seqReqs, t.cpuTime, seqCal)
	if err != nil {
		return result{}, err
	}
	rss, err := stopRSS()
	if err != nil {
		return result{}, err
	}
	// The closed loop's reference samples are taken just before and just
	// after it: taken while the servers keep every CPU busy, they would
	// measure the contention the servers cause as much as the machine.
	if err := closedCal.samples(closedCalSamples); err != nil {
		return result{}, err
	}
	cpu0, err := t.cpuTime()
	if err != nil {
		return result{}, err
	}
	closed, closedSpan := s.closedLoop(closedReqs, closedDur)
	cpu1, err := t.cpuTime()
	if err != nil {
		return result{}, err
	}
	if err := closedCal.samples(closedCalSamples); err != nil {
		return result{}, err
	}
	debug.SetGCPercent(gcPercent)
	debug.SetMemoryLimit(memLimit)

	tRun := time.Since(t0)
	rep := &report{}
	m.check(rep, append(append(append([]outcome(nil), open...), seq...), closed...), s)
	if probe != nil {
		rep.checkWrites(probeOut, ps.acks, map[int]uint64{0: 1})
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: inputs %.1fs, servers %.1fs, check %.1fs\n", w.name, seed, tGen.Seconds(), (tRun - tGen).Seconds(), (time.Since(t0) - tRun).Seconds())
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d open, %d sequential, %d closed in %.2fs, census %d answers, %d distinct, %.3f in range\n",
		w.name, seed, len(open), len(seq), len(closed), closedSpan.Seconds(), rep.census.total, len(rep.census.distinct), rep.census.share())
	split := func(outs []outcome) (reads, writes []outcome) {
		for _, o := range outs {
			if o.req.write {
				writes = append(writes, o)
			} else {
				reads = append(reads, o)
			}
		}
		return reads, writes
	}
	openReads, openWrites := split(open)
	seqReads, seqWrites := split(seq)
	if probe != nil {
		seqWrites = probeOut
	}
	_, readTail, err := quantiles(seqReads, w.readTail, cpuOf)
	if err != nil {
		return result{}, fmt.Errorf("read CPU: %w", err)
	}
	readMean := meanMS(seqReads, cpuOf)
	_, writeTail, err := quantiles(seqWrites, w.writeTail, cpuOf)
	if err != nil {
		return result{}, fmt.Errorf("write CPU: %w", err)
	}
	writeMean := meanMS(seqWrites, cpuOf)
	okClosed := 0
	for i := range closed {
		if closed[i].ok() {
			okClosed++
		}
	}
	wallLine(w.name, seed, openReads, openWrites, float64(okClosed)/closedSpan.Seconds())
	writeCal := seqCal
	if probe != nil {
		writeCal = probeCal
	}
	loaded := float64(cpu1-cpu0) / float64(time.Millisecond) / math.Max(1, float64(okClosed))
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: CPU ms before scaling: read mean %.4f tail %.4f, write mean %.4f tail %.4f, loaded %.4f, set-up %.4f (wall %.4f s); slowdown: sequential %.4f, writes %.4f, closed %.4f, set-up %.4f\n",
		w.name, seed, readMean, readTail, writeMean, writeTail, loaded, setupCPU*1000, setupWall, seqCal.slowdown(), writeCal.slowdown(), closedCal.slowdown(), setupCal.slowdown())
	vals := map[string]float64{
		"setup_s":           setupCPU / setupCal.slowdown(),
		"read_cpu_mean_ms":  readMean / seqCal.slowdown(),
		"read_cpu_tail_ms":  readTail / seqCal.slowdown(),
		"write_cpu_mean_ms": writeMean / writeCal.slowdown(),
		"write_cpu_tail_ms": writeTail / writeCal.slowdown(),
		"loaded_cpu_ms":     loaded / closedCal.slowdown(),
		"ok_share":          float64(rep.attempted-rep.failed) / math.Max(1, float64(rep.attempted)),
		"rss_mb":            rss,
	}
	res := result{Correct: true, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{vals[m.name], m.unit}
	}
	for _, f := range rep.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failed request:", f)
	}
	if err := rep.err(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		res.Correct = false
	}
	return res, nil
}

// wallLine prints the open loop's wall-clock latencies, timed from each
// request's intended send time, and the closed loop's throughput.
func wallLine(name string, seed int64, reads, writes []outcome, rps float64) {
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: wall clock:", name, seed)
	for _, c := range []struct {
		kind string
		outs []outcome
	}{{"read", reads}, {"write", writes}} {
		if p50, p90, err := quantiles(c.outs, 90, latencyOf); err == nil {
			fmt.Fprintf(os.Stderr, " open-loop %s p50 %.3fms p90 %.3fms,", c.kind, p50, p90)
		}
	}
	fmt.Fprintf(os.Stderr, " closed-loop %.1f req/s\n", rps)
}
