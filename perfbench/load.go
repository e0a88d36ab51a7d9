package main

// load.go: the load generator. The open loop sends on a seeded Poisson
// schedule whatever the server does, and times every request from when
// it was due, so a stall also counts against the requests queued behind
// it. The sequential loop sends one request at a time and charges each
// the CPU time the server processes spent while it was in flight. The
// closed loop keeps a fixed number of requests in flight. None uses more
// connections than there are CPUs.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"phom/internal/serve"
)

// conns is the generator's connection count.
var conns = runtime.NumCPU()

// requestTimeout bounds one request; a request that exceeds it fails.
const requestTimeout = 30 * time.Second

// poissonSchedule returns the intended send offsets of a Poisson
// arrival process at rate per second over dur, drawn from seed, and
// conditioned on its expected count: round(rate·dur) arrivals at
// independent uniform times. Every seed then yields the same number of
// samples, so a fixed tail percentile always has 10 beyond it.
func poissonSchedule(seed int64, rate float64, dur time.Duration) []time.Duration {
	r := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, int(math.Round(rate*dur.Seconds())))
	for i := range out {
		out[i] = time.Duration(r.Int63n(int64(dur)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// outcome is what one request got back.
type outcome struct {
	req     *request
	id      string
	status  int
	body    []byte
	version uint64 // X-Phom-Instance-Version of an instance read; acked version of a write
	err     error
	// latency is measured from the intended send time (open loop only);
	// late is how far behind its schedule the generator sent the request.
	latency, late, rtt time.Duration
	// cpu is the CPU time the server processes spent while the request
	// was in flight (sequential loop only).
	cpu  time.Duration
	done time.Time // when the response was read
}

func (o *outcome) ok() bool { return o.err == nil && o.status == http.StatusOK }

// sender sends requests to one base URL over a bounded connection pool.
// Writes to one live instance are serialized and carry the instance's
// last acknowledged version as if_version.
type sender struct {
	base   string
	client *http.Client
	ids    atomic.Int64
	prefix string

	mu      sync.Mutex
	locks   map[int]*sync.Mutex
	version map[int]uint64
	// acks lists, per instance, the delta batches in the order the
	// server acknowledged them (version order).
	acks map[int][]ack
}

type ack struct {
	version uint64
	ops     []serve.DeltaOp
}

func newSender(base, prefix string) *sender {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &sender{
		base:    base,
		client:  &http.Client{Transport: tr, Timeout: requestTimeout},
		prefix:  prefix,
		locks:   map[int]*sync.Mutex{},
		version: map[int]uint64{},
		acks:    map[int][]ack{},
	}
}

func (s *sender) close() { s.client.CloseIdleConnections() }

// setVersion records a live instance's current version (after creation).
func (s *sender) setVersion(inst int, v uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.version[inst] = v
	if s.locks[inst] == nil {
		s.locks[inst] = &sync.Mutex{}
	}
}

// send performs req and fills o (all but latency and late).
func (s *sender) send(req *request, o *outcome) {
	o.req = req
	o.id = s.prefix + "-" + strconv.FormatInt(s.ids.Add(1), 10)
	body := req.body
	var lock *sync.Mutex
	if req.write {
		s.mu.Lock()
		lock = s.locks[req.inst]
		s.mu.Unlock()
		lock.Lock()
		defer lock.Unlock()
		s.mu.Lock()
		v := int64(s.version[req.inst])
		s.mu.Unlock()
		body = mustJSON(serve.DeltaRequest{IfVersion: &v, Deltas: req.deltas})
	}
	start := time.Now()
	hr, err := http.NewRequest(http.MethodPost, s.base+req.path, bytes.NewReader(body))
	if err != nil {
		o.err = err
		return
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set(serve.RequestIDHeader, o.id)
	resp, err := s.client.Do(hr)
	if err != nil {
		o.err = err
		return
	}
	o.body, o.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	o.done = time.Now()
	o.rtt = o.done.Sub(start)
	o.status = resp.StatusCode
	if o.err != nil || o.status != http.StatusOK {
		return
	}
	if v := resp.Header.Get(serve.InstanceVersionHeader); v != "" {
		o.version, o.err = strconv.ParseUint(v, 10, 64)
	}
	if req.write {
		var dr serve.DeltaResponse
		if err := json.Unmarshal(o.body, &dr); err != nil {
			o.err = err
			return
		}
		o.version = dr.Version
		s.mu.Lock()
		s.version[req.inst] = dr.Version
		s.acks[req.inst] = append(s.acks[req.inst], ack{dr.Version, req.deltas})
		s.mu.Unlock()
	}
}

// openLoop sends reqs[i] at sched[i] from the start and returns when
// every request has completed. Each arrival gets its own goroutine, so a
// request waiting for a connection or for its instance's previous write
// holds up no other; the transport queues them for the conns
// connections in arrival order. The goroutines are bounded by the
// schedule's length.
func (s *sender) openLoop(reqs []*request, sched []time.Duration) []outcome {
	out := make([]outcome, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for i, at := range sched {
		due := start.Add(at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		out[i].late = time.Since(due)
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			s.send(reqs[i], &out[i])
			out[i].latency = time.Since(due)
		}(i, due)
	}
	wg.Wait()
	return out
}

// closedLoop keeps conns requests in flight, taking reqs in order, for
// dur or until reqs runs out. It returns the outcomes of the requests it
// sent and the span measured: from the start to the deadline, or to the
// last completion when reqs ran out first.
func (s *sender) closedLoop(reqs []*request, dur time.Duration) ([]outcome, time.Duration) {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				s.send(reqs[i], &out[i])
			}
		}()
	}
	wg.Wait()
	n := int(next.Load())
	if n < len(reqs) {
		return out[:n], dur
	}
	span := time.Duration(0)
	for i := range out {
		span = max(span, out[i].done.Sub(start))
	}
	return out, min(span, dur)
}

// sequential sends reqs one at a time, in order, and charges each the
// CPU time cpu reports the server processes spent while it was in
// flight. Before each it takes a sample of cal. CPU time, unlike wall time, does not count the time the
// processes waited for a CPU, so it does not move with what else the
// machine runs.
func (s *sender) sequential(reqs []*request, cpu func() (time.Duration, error), cal *calibrator) ([]outcome, error) {
	out := make([]outcome, len(reqs))
	for i, req := range reqs {
		if err := cal.sample(); err != nil {
			return nil, err
		}
		a, err := cpu()
		if err != nil {
			return nil, err
		}
		s.send(req, &out[i])
		b, err := cpu()
		if err != nil {
			return nil, err
		}
		out[i].cpu = b - a
	}
	return out, nil
}

// percentile is the nearest-rank p-th percentile of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// beyond is the number of samples strictly above the nearest-rank p-th
// percentile position of n samples.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// tailCandidates are the tail percentiles a workload may report, highest
// first.
var tailCandidates = []float64{99, 95, 90}

// tailPercentile is the highest candidate percentile that leaves at
// least 10 of n samples beyond it, or false when none does.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailCandidates {
		if beyond(n, p) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// quantiles returns the median and the p-th percentile, in
// milliseconds, of what of gives for the successful outcomes, and fails
// when fewer than 10 samples lie beyond the p-th percentile.
func quantiles(outs []outcome, p float64, of func(*outcome) time.Duration) (p50, tail float64, err error) {
	var ms []float64
	for i := range outs {
		if outs[i].ok() {
			ms = append(ms, float64(of(&outs[i]))/float64(time.Millisecond))
		}
	}
	if beyond(len(ms), p) < 10 {
		return 0, 0, fmt.Errorf("%d samples leave fewer than 10 beyond p%g", len(ms), p)
	}
	sort.Float64s(ms)
	return percentile(ms, 50), percentile(ms, p), nil
}

// meanMS is the mean, in milliseconds, of what of gives for the
// successful outcomes.
func meanMS(outs []outcome, of func(*outcome) time.Duration) float64 {
	var sum time.Duration
	n := 0
	for i := range outs {
		if outs[i].ok() {
			sum += of(&outs[i])
			n++
		}
	}
	return float64(sum) / float64(time.Millisecond) / math.Max(1, float64(n))
}

func cpuOf(o *outcome) time.Duration     { return o.cpu }
func latencyOf(o *outcome) time.Duration { return o.latency }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
