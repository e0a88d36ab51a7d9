package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"phom/internal/engine"
	"phom/internal/replay"
	"phom/internal/serve"
)

// pathQuery is a k-edge path query labeled R in the text wire format.
func pathQuery(k int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "vertices %d\n", k+1)
	for i := 0; i < k; i++ {
		fmt.Fprintf(&b, "edge %d %d R\n", i, i+1)
	}
	return b.String()
}

// pathInstance is an n-edge probabilistic path instance; seed varies
// the probabilities without changing the structure.
func pathInstance(n, seed int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "vertices %d\n", n+1)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "edge %d %d R %d/17\n", i, i+1, 1+(seed+i)%16)
	}
	return b.String()
}

func solveJob(q, inst string) json.RawMessage {
	j, _ := json.Marshal(map[string]any{"query_text": q, "instance_text": inst})
	return j
}

func reweightJob(q, inst string, probs map[string]string) json.RawMessage {
	j, _ := json.Marshal(map[string]any{"query_text": q, "instance_text": inst, "probs": probs})
	return j
}

func batchBody(jobs []json.RawMessage) []byte {
	b, _ := json.Marshal(map[string]any{"jobs": jobs})
	return b
}

// newBackends boots n in-process phomserve replicas.
func newBackends(t *testing.T, n, workers int) ([]string, []*engine.Engine) {
	t.Helper()
	urls := make([]string, n)
	engines := make([]*engine.Engine, n)
	for i := range urls {
		eng := engine.New(engine.Options{Workers: workers})
		srv := httptest.NewServer(serve.New(eng).WithShard("replica-" + strconv.Itoa(i)).Handler())
		t.Cleanup(srv.Close)
		t.Cleanup(func() { _ = eng.Close() })
		urls[i] = srv.URL
		engines[i] = eng
	}
	return urls, engines
}

func newGate(t *testing.T, cfg Config) (*Gateway, *httptest.Server) {
	t.Helper()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	srv := httptest.NewServer(g.Handler())
	t.Cleanup(srv.Close)
	return g, srv
}

func getHealth(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestMixedReplayThroughGate is the tier's end-to-end accounting check
// (run by CI): a gate over two backends takes the full mixed replay
// traffic — solves, reweights, batches, streams, malformed and
// intractable requests — with zero unaccounted responses, the gate's
// served count reconciling exactly with the fired count, at least one
// batch fanned out across shards and stream-merged, and both backends
// actually sharing the load.
func TestMixedReplayThroughGate(t *testing.T) {
	urls, _ := newBackends(t, 2, 2)
	_, gate := newGate(t, Config{Backends: urls})

	rep, err := replay.Run(context.Background(), replay.Options{
		Targets:     []string{gate.URL},
		Requests:    120,
		Concurrency: 8,
		Seed:        11,
		N:           48,
		BatchSize:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unaccounted() != 0 {
		t.Fatalf("unaccounted responses: %d (off-taxonomy %d, body errors %d): %v",
			rep.Unaccounted(), rep.OffTaxonomy, rep.BodyErrors, rep.Failures)
	}
	if rep.Requests != 120 {
		t.Fatalf("fired %d requests, want 120", rep.Requests)
	}
	var h Health
	getHealth(t, gate.URL, &h)
	served := uint64(0)
	for _, n := range h.HTTP {
		served += n
	}
	if served != uint64(rep.Requests) {
		t.Fatalf("gate served %d responses for %d fired", served, rep.Requests)
	}
	if h.CrossShardBatches < 1 {
		t.Fatalf("no batch crossed shards (cross_shard_batches=%d); sharding untested", h.CrossShardBatches)
	}
	for _, u := range urls {
		var bh serve.HealthResponse
		getHealth(t, u, &bh)
		n := uint64(0)
		for _, c := range bh.HTTP {
			n += c
		}
		if n == 0 {
			t.Fatalf("backend %s served no requests; ring routed everything elsewhere", u)
		}
	}
}

// streamLines posts body to url as /batch?stream=1 and returns the
// decoded result lines keyed by job index plus the trailer count.
func streamLines(t *testing.T, client *http.Client, url string, body []byte, reqID string) (map[int]map[string]any, int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/batch?stream=1", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set(serve.RequestIDHeader, reqID)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	lines := map[int]map[string]any{}
	trailers := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 8<<20)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		if done, _ := m["done"].(bool); done {
			trailers++
			continue
		}
		idx, ok := m["index"].(float64)
		if !ok {
			t.Fatalf("stream line without index: %q", sc.Text())
		}
		lines[int(idx)] = m
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines, trailers
}

// normalize strips the volatile fields — timings, cache effects, and
// the request id — leaving exactly the answer content that must be
// byte-identical between a single backend and the gate-merged tier.
func normalize(m map[string]any) map[string]any {
	out := map[string]any{}
	for k, v := range m {
		switch k {
		case "elapsed_us", "cache_hit", "shared", "plan_hit", "request_id":
		default:
			out[k] = v
		}
	}
	return out
}

func testJobs() []json.RawMessage {
	var jobs []json.RawMessage
	for s := 0; s < 4; s++ {
		q := pathQuery(1 + s%3)
		inst := pathInstance(4+s, s)
		jobs = append(jobs, solveJob(q, inst))
		jobs = append(jobs, reweightJob(q, inst, map[string]string{"0>1": "3/7"}))
	}
	// A malformed job: the parse-failure line must also be identical
	// across deployments (the gate routes it to a backend instead of
	// answering itself).
	jobs = append(jobs, solveJob("edge 0 1 R\n", pathInstance(4, 0)))
	return jobs
}

// TestStreamMergeByteIdentity pins the acceptance criterion: a
// stream-merged /batch through the gate is byte-identical to a
// single-backend run modulo completion order (volatile fields
// normalized), with original job indices preserved and exactly one
// trailer.
func TestStreamMergeByteIdentity(t *testing.T) {
	jobs := testJobs()
	body := batchBody(jobs)

	soloURLs, _ := newBackends(t, 1, 2)
	solo, soloTrailers := streamLines(t, http.DefaultClient, soloURLs[0], body, "")

	urls, _ := newBackends(t, 3, 2)
	g, gate := newGate(t, Config{Backends: urls, Replication: 1})
	merged, mergedTrailers := streamLines(t, http.DefaultClient, gate.URL, body, "")

	if soloTrailers != 1 || mergedTrailers != 1 {
		t.Fatalf("trailers: solo %d, merged %d, want 1 and 1", soloTrailers, mergedTrailers)
	}
	if len(solo) != len(jobs) || len(merged) != len(jobs) {
		t.Fatalf("lines: solo %d, merged %d, want %d", len(solo), len(merged), len(jobs))
	}
	for i := 0; i < len(jobs); i++ {
		a, b := normalize(solo[i]), normalize(merged[i])
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("job %d diverged:\n solo:   %v\n merged: %v", i, a, b)
		}
	}
	// The batch must actually have been fanned out for the comparison
	// to mean anything.
	if g.crossShardBatches.Load() < 1 {
		t.Fatal("batch did not cross shards; widen the job set")
	}

	// The non-streamed merge must agree byte-for-byte too: raw results
	// scattered back into job order.
	soloResp := postJSON(t, soloURLs[0]+"/batch", body)
	gateResp := postJSON(t, gate.URL+"/batch", body)
	var sr, gr struct {
		Results []map[string]any `json:"results"`
	}
	if err := json.Unmarshal(soloResp, &sr); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(gateResp, &gr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) != len(jobs) || len(gr.Results) != len(jobs) {
		t.Fatalf("batch results: solo %d, gate %d, want %d", len(sr.Results), len(gr.Results), len(jobs))
	}
	for i := range sr.Results {
		a, b := normalize(sr.Results[i]), normalize(gr.Results[i])
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("batch job %d diverged:\n solo: %v\n gate: %v", i, a, b)
		}
	}
}

func postJSON(t *testing.T, url string, body []byte) []byte {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, buf.String())
	}
	return buf.Bytes()
}

// TestRequestIDPropagation: the ingress id rides to the backends and
// comes back on every merged stream line.
func TestRequestIDPropagation(t *testing.T) {
	urls, _ := newBackends(t, 2, 2)
	_, gate := newGate(t, Config{Backends: urls})
	lines, _ := streamLines(t, http.DefaultClient, gate.URL, batchBody(testJobs()), "trace-42")
	for i, m := range lines {
		if got, _ := m["request_id"].(string); got != "trace-42" {
			t.Fatalf("line %d request_id = %q, want trace-42", i, got)
		}
	}
}

// TestShedTypedRetryAfter: a full admission ledger sheds with a typed
// 503 carrying Retry-After, and releasing the budget readmits.
func TestShedTypedRetryAfter(t *testing.T) {
	urls, _ := newBackends(t, 1, 2)
	g, gate := newGate(t, Config{Backends: urls, CostBudget: 50})
	// Occupy almost the whole budget, as an admitted-but-unfinished
	// giant job would.
	if !g.backends[0].ledger.Admit(49.5) {
		t.Fatal("idle ledger refused")
	}
	job := solveJob(pathQuery(2), pathInstance(5, 1))
	resp, err := http.Post(gate.URL+"/solve", "application/json", bytes.NewReader(job))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 30 {
		t.Fatalf("Retry-After %q, want an integer in [1,30]", resp.Header.Get("Retry-After"))
	}
	var e serve.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Code != "unavailable" {
		t.Fatalf("error code %q, want unavailable", e.Code)
	}
	if g.shed.Load() != 1 {
		t.Fatalf("shed counter %d, want 1", g.shed.Load())
	}

	// A shed streamed batch still honors batch semantics: one typed
	// unavailable line per job plus the trailer.
	lines, trailers := streamLines(t, http.DefaultClient, gate.URL, batchBody(testJobs()), "")
	if trailers != 1 {
		t.Fatalf("shed stream trailers = %d", trailers)
	}
	for i, m := range lines {
		if code, _ := m["code"].(string); code != "unavailable" {
			t.Fatalf("shed stream line %d code %q, want unavailable", i, code)
		}
	}

	g.backends[0].ledger.Release(49.5)
	resp2, err := http.Post(gate.URL+"/solve", "application/json", bytes.NewReader(job))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("after release: status %d, want 200", resp2.StatusCode)
	}
}

// replica is a restartable in-process phomserve bound to a fixed port,
// for kill/rejoin scenarios httptest cannot express.
type replica struct {
	addr string
	eng  *engine.Engine
	hs   *http.Server
}

func startReplica(t *testing.T, addr string) *replica {
	t.Helper()
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	var err error
	for i := 0; i < 40; i++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	eng := engine.New(engine.Options{Workers: 2})
	hs := &http.Server{Handler: serve.New(eng).Handler()}
	go func() { _ = hs.Serve(ln) }()
	return &replica{addr: ln.Addr().String(), eng: eng, hs: hs}
}

func (rp *replica) stop() {
	_ = rp.hs.Close()
	_ = rp.eng.Close()
}

// TestWarmStartRejoin pins the acceptance criterion end to end: a
// replica is killed, probed out of the ring (ejected in the shard
// map), restarted cold on the same port, and rejoined with the gate's
// stored snapshot pushed first — so replaying the same structure set
// compiles zero plans.
func TestWarmStartRejoin(t *testing.T) {
	rp := startReplica(t, "")
	defer func() { rp.stop() }()
	g, gate := newGate(t, Config{Backends: []string{"http://" + rp.addr}})

	structures := [][2]string{
		{pathQuery(1), pathInstance(4, 0)},
		{pathQuery(2), pathInstance(5, 1)},
		{pathQuery(3), pathInstance(6, 2)},
	}
	fire := func() {
		for _, s := range structures {
			postJSON(t, gate.URL+"/reweight", reweightJob(s[0], s[1], map[string]string{"0>1": "2/5"}))
		}
	}
	fire()
	if n := g.PullSnapshots(); n != 1 {
		t.Fatalf("snapshotted %d backends, want 1", n)
	}

	rp.stop()
	for i := 0; i < DefaultProbeFailures; i++ {
		g.ProbeNow()
	}
	var h Health
	getHealth(t, gate.URL, &h)
	if !h.Backends[0].Ejected || h.Backends[0].Alive {
		t.Fatalf("killed backend not ejected in shard map: %+v", h.Backends[0])
	}
	// While the whole owner set is down, requests get the typed 503.
	resp, err := http.Post(gate.URL+"/solve", "application/json", bytes.NewReader(solveJob(structures[0][0], structures[0][1])))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("solve against dead tier: status %d, want 503", resp.StatusCode)
	}

	rp = startReplica(t, rp.addr)
	g.ProbeNow()
	getHealth(t, gate.URL, &h)
	if h.Backends[0].Ejected {
		t.Fatal("restarted backend did not rejoin")
	}

	var bh serve.HealthResponse
	getHealth(t, "http://"+rp.addr, &bh)
	if bh.Stats.PlanCacheLen == 0 {
		t.Fatal("warm-start push left the plan cache empty")
	}
	if bh.Stats.PlanCompiles != 0 {
		t.Fatalf("restarted replica compiled %d plans before serving", bh.Stats.PlanCompiles)
	}

	// The replayed structure set must be served entirely from the
	// pushed snapshot: zero compiles, every reweight a plan hit.
	fire()
	getHealth(t, "http://"+rp.addr, &bh)
	if bh.Stats.PlanCompiles != 0 {
		t.Fatalf("rejoined replica compiled %d plans on the replayed structures (want warm start)", bh.Stats.PlanCompiles)
	}
	if bh.Stats.PlanHits < uint64(len(structures)) {
		t.Fatalf("plan hits %d after replay of %d structures", bh.Stats.PlanHits, len(structures))
	}
}

// TestUptimeRegressionWarmStart: a replica that restarts between probes
// — never observed dead — is detected by its uptime_ms regression and
// still gets the warm-start push.
func TestUptimeRegressionWarmStart(t *testing.T) {
	rp := startReplica(t, "")
	defer func() { rp.stop() }()
	g, gate := newGate(t, Config{Backends: []string{"http://" + rp.addr}})

	postJSON(t, gate.URL+"/reweight", reweightJob(pathQuery(2), pathInstance(5, 3), map[string]string{"0>1": "1/3"}))
	if n := g.PullSnapshots(); n != 1 {
		t.Fatal("snapshot pull failed")
	}
	// Let the replica age before the first probe: the uptime recorded
	// there must exceed the restarted replica's at the second probe, or
	// the regression the gate keys the push on never shows.
	time.Sleep(150 * time.Millisecond)
	g.ProbeNow() // record the first uptime

	rp.stop()
	rp = startReplica(t, rp.addr)
	g.ProbeNow() // uptime regressed: push without ever seeing it down

	var bh serve.HealthResponse
	getHealth(t, "http://"+rp.addr, &bh)
	if bh.Stats.PlanCacheLen == 0 || bh.Stats.PlanCompiles != 0 {
		t.Fatalf("fast restart not warm-started: cache %d, compiles %d", bh.Stats.PlanCacheLen, bh.Stats.PlanCompiles)
	}
}

// TestHealthShardMap: the gate's /healthz exposes the ring geometry.
func TestHealthShardMap(t *testing.T) {
	urls, _ := newBackends(t, 3, 1)
	_, gate := newGate(t, Config{Backends: urls, Replication: 2, VNodes: 64})
	var h Health
	getHealth(t, gate.URL, &h)
	if h.Status != "ok" || h.UptimeMS < 0 {
		t.Fatalf("health %+v", h)
	}
	if h.Replication != 2 {
		t.Fatalf("replication %d, want 2", h.Replication)
	}
	if len(h.Backends) != 3 {
		t.Fatalf("%d backends in shard map, want 3", len(h.Backends))
	}
	nodes := make([]int, 0, 3)
	for _, b := range h.Backends {
		if b.VNodes != 64 {
			t.Fatalf("backend %d vnodes %d, want 64", b.Node, b.VNodes)
		}
		if b.Ejected || !b.Alive {
			t.Fatalf("healthy backend reported ejected: %+v", b)
		}
		nodes = append(nodes, b.Node)
	}
	sort.Ints(nodes)
	if !reflect.DeepEqual(nodes, []int{0, 1, 2}) {
		t.Fatalf("shard map nodes %v", nodes)
	}
}
