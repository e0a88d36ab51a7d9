package main

// calibrate.go: the machine-speed reference. On a shared machine the
// CPU time a fixed piece of work takes moves with what the other
// tenants run on the same cores and memory, by a fifth or more within
// minutes. So each measured phase is interleaved with requests to a
// reference server: this binary run with -reference, which answers a
// fixed request with the same kind of work the servers do (an HTTP
// exchange, JSON decoding and encoding, big.Rat arithmetic, garbage
// collection) using the standard library only, so that no change to
// the program under test can change it. The phase's CPU times are
// divided by the ratio of the reference request's median CPU time to
// its value on an idle machine, which scales them to that machine.

import (
	"encoding/json"
	"fmt"
	"math/big"
	"math/rand"
	"net/http"
	"strconv"
	"time"
)

// calReference is the reference request's median CPU time on an idle
// machine (2 vCPUs of a 2.1 GHz Xeon).
const calReference = 1600 * time.Microsecond

// refRequest is the reference server's fixed request: a probability per
// edge of a 128-edge graph.
type refRequest struct {
	Edges []refEdge `json:"edges"`
}

type refEdge struct {
	From  int    `json:"from"`
	To    int    `json:"to"`
	Label string `json:"label"`
	Prob  string `json:"prob"`
}

type refResponse struct {
	Prob  string  `json:"prob"`
	Float float64 `json:"prob_float"`
	Edges int     `json:"edges"`
}

// refBody is the fixed request body, the same on every seed.
func refBody() []byte {
	r := rand.New(rand.NewSource(1))
	var req refRequest
	for i := 0; i < 128; i++ {
		req.Edges = append(req.Edges, refEdge{From: i, To: i + 1, Label: "R", Prob: big.NewRat(int64(1+r.Intn(15)), 16).RatString()})
	}
	return mustJSON(req)
}

// serveReference runs the reference server on addr until it is killed.
func serveReference(addr string) error {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {})
	mux.HandleFunc("POST /ref", func(w http.ResponseWriter, hr *http.Request) {
		var req refRequest
		if err := json.NewDecoder(hr.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// The probability that a random walk along the edges survives
		// every edge or its complement, alternately: a chain of exact
		// products and sums like the servers' plan interpreter runs.
		acc := big.NewRat(1, 1)
		one := big.NewRat(1, 1)
		for i, e := range req.Edges {
			p, ok := new(big.Rat).SetString(e.Prob)
			if !ok {
				http.Error(w, "bad prob "+strconv.Quote(e.Prob), http.StatusBadRequest)
				return
			}
			if i%2 == 1 {
				p.Sub(one, p)
			}
			acc.Mul(acc, p)
			acc.Add(acc, new(big.Rat).Mul(p, big.NewRat(1, 1024)))
		}
		f, _ := acc.Float64()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(refResponse{Prob: acc.RatString(), Float: f, Edges: len(req.Edges)})
	})
	return http.ListenAndServe(addr, mux)
}

// calibrator sends reference requests and records their CPU time.
type calibrator struct {
	ref   *proc
	s     *sender
	req   *request
	times []float64
}

func newCalibrator(ref *proc, body []byte) *calibrator {
	return &calibrator{ref: ref, s: newSender(ref.url, "reference"), req: &request{path: "/ref", body: body}}
}

// sample sends the reference request twice and records the CPU time of
// the second: the first brings the reference server's code and data
// back into the caches the servers' work evicted, so the sample measures
// how fast the machine runs rather than how much the servers touched.
func (c *calibrator) sample() error {
	var o outcome
	if c.s.send(c.req, &o); !o.ok() {
		return fmt.Errorf("reference request: status %d %v", o.status, o.err)
	}
	a, err := c.ref.cpuTime()
	if err != nil {
		return err
	}
	if c.s.send(c.req, &o); !o.ok() {
		return fmt.Errorf("reference request: status %d %v", o.status, o.err)
	}
	b, err := c.ref.cpuTime()
	if err != nil {
		return err
	}
	c.times = append(c.times, float64(b-a))
	return nil
}

// samples takes n samples.
func (c *calibrator) samples(n int) error {
	for k := 0; k < n; k++ {
		if err := c.sample(); err != nil {
			return err
		}
	}
	return nil
}

// slowdown is the median reference CPU time over its idle value: above
// 1 when the machine ran slower than the idle one.
func (c *calibrator) slowdown() float64 {
	return median(c.times) / float64(calReference)
}
