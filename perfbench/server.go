package main

// server.go: the server harness. It spawns the phomserve and phomgate
// binaries built from this checkout as child processes, reads their
// /healthz counters, their resident memory and their CPU time, and stops
// them.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"phom/internal/engine"
	"phom/internal/gateway"
	"phom/internal/serve"
)

// proc is one running server process.
type proc struct {
	name string
	url  string
	args []string
	cmd  *exec.Cmd
	done chan struct{}
}

// freeAddr returns a loopback address with a port that was free a
// moment ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// spawn starts binary name from dir with args plus -addr, and waits
// until its /healthz answers.
func spawn(dir, name string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args = append([]string{"-addr", addr}, args...)
	cmd := exec.Command(filepath.Join(dir, name), args...)
	cmd.Stdout = io.Discard
	cmd.Stderr = io.Discard
	// The server dies with the benchmark, even when the benchmark is
	// killed or crashes before it can stop it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, url: "http://" + addr, args: args, cmd: cmd, done: make(chan struct{})}
	go func() { _ = cmd.Wait(); close(p.done) }()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := readyClient.Get(p.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		select {
		case <-p.done:
			return nil, fmt.Errorf("%s exited before it was ready", name)
		default:
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, fmt.Errorf("%s not ready after 20s: %v", name, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

var readyClient = &http.Client{Timeout: time.Second}

// stop sends SIGTERM, and SIGKILL if the process has not exited after
// five seconds; it returns once the process has ended.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// rssMiB reads VmRSS, the resident set size, from /proc.
func (p *proc) rssMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmRSS %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", p.cmd.Process.Pid)
}

// cpuTime reads the process's CPU clock: the user and system time of
// all its threads, in nanoseconds, as the scheduler accounts it, so
// without the time the process waited for a CPU. The clock id is the
// one clock_getcpuclockid(3) returns for the process.
func (p *proc) cpuTime() (time.Duration, error) {
	const cpuClockSched = 2
	id := ^int32(p.cmd.Process.Pid)<<3 | cpuClockSched
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(id), uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, fmt.Errorf("%s CPU clock: %w", p.name, e)
	}
	return time.Duration(ts.Nano()), nil
}

// tier is the set of server processes of one workload: one phomserve,
// and a phomgate in front of it when the workload is gated. front is
// where the load goes.
type tier struct {
	serve, gate *proc
}

// serveArgs and gateArgs are the recorded flags the harness runs the
// servers with (besides -addr and -backends).
var (
	serveArgs = []string{"-workers", "2"}
	gateArgs  = []string{}
)

func startTier(dir string, gated bool) (*tier, error) {
	s, err := spawn(dir, "phomserve", serveArgs...)
	if err != nil {
		return nil, err
	}
	t := &tier{serve: s}
	if gated {
		g, err := spawn(dir, "phomgate", append([]string{"-backends", s.url}, gateArgs...)...)
		if err != nil {
			s.stop()
			return nil, err
		}
		t.gate = g
	}
	return t, nil
}

func (t *tier) front() string {
	if t.gate != nil {
		return t.gate.url
	}
	return t.serve.url
}

func (t *tier) stop() {
	if t.gate != nil {
		t.gate.stop()
	}
	t.serve.stop()
}

func (t *tier) rssMiB() (float64, error) {
	total := 0.0
	for _, p := range []*proc{t.serve, t.gate} {
		if p == nil {
			continue
		}
		mb, err := p.rssMiB()
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// cpuTime is the summed CPU time of the tier's processes.
func (t *tier) cpuTime() (time.Duration, error) {
	var total time.Duration
	for _, p := range []*proc{t.serve, t.gate} {
		if p == nil {
			continue
		}
		d, err := p.cpuTime()
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

// sampleRSS samples the tier's summed VmRSS every interval until the
// returned stop is called; stop returns the median sample. A median over
// a phase, unlike the peak, does not hinge on where the servers' garbage
// collection cycles happened to fall.
func (t *tier) sampleRSS(every time.Duration) (stop func() (float64, error)) {
	type sampled struct {
		mb  float64
		err error
	}
	done := make(chan struct{})
	result := make(chan sampled, 1)
	go func() {
		var samples []float64
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			mb, err := t.rssMiB()
			if err != nil {
				result <- sampled{err: err}
				return
			}
			samples = append(samples, mb)
			select {
			case <-done:
				result <- sampled{mb: median(samples)}
				return
			case <-tick.C:
			}
		}
	}()
	return func() (float64, error) {
		close(done)
		r := <-result
		return r.mb, r.err
	}
}

// health is one /healthz reading of the tier.
type health struct {
	eng               engine.Stats
	shed, gateRetries uint64
}

func getJSON(url string, v any) error {
	resp, err := readyClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (t *tier) health() (health, error) {
	var sh serve.HealthResponse
	if err := getJSON(t.serve.url+"/healthz", &sh); err != nil {
		return health{}, err
	}
	h := health{eng: sh.Stats}
	if t.gate != nil {
		var gh gateway.Health
		if err := getJSON(t.gate.url+"/healthz", &gh); err != nil {
			return health{}, err
		}
		h.shed, h.gateRetries = gh.Shed, gh.GateRetries
	}
	return h, nil
}

// delta is the counter difference b − a.
func (b health) delta(a health) health {
	d := b
	e, x := &d.eng, a.eng
	e.Submitted -= x.Submitted
	e.Solved -= x.Solved
	e.CacheHits -= x.CacheHits
	e.Coalesced -= x.Coalesced
	e.Rejected -= x.Rejected
	e.Errors -= x.Errors
	e.Canceled -= x.Canceled
	e.PlanHits -= x.PlanHits
	e.PlanCompiles -= x.PlanCompiles
	e.BatchRuns -= x.BatchRuns
	e.BatchLanes -= x.BatchLanes
	e.FloatFast -= x.FloatFast
	e.FloatFallbacks -= x.FloatFallbacks
	e.ApproxRuns -= x.ApproxRuns
	e.ApproxSamples -= x.ApproxSamples
	e.DeltasApplied -= x.DeltasApplied
	e.IncrementalRecompiles -= x.IncrementalRecompiles
	e.FullRecompiles -= x.FullRecompiles
	d.shed -= a.shed
	d.gateRetries -= a.gateRetries
	return d
}
