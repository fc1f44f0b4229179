//go:build linux

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"nnlqp/internal/cluster"
	"nnlqp/internal/core"
)

// env is what every run in this process shares: the shipped binaries built
// from the checkout, one pinned-seed predictor file, and the scratch root.
type env struct {
	root      string // repository root (holds go.mod)
	outDir    string // benchmark/out, ignored by git
	serverBin string
	predPath  string
	pred      *core.Predictor // the oracle's copy of the predictor file
	prepS     float64         // build + train seconds
}

// repoRoot walks up from the working directory to the directory that holds
// go.mod, so the program works under both `go run` and `go test`.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory: run from the repository checkout")
		}
		dir = parent
	}
}

// prepare builds nnlqp-server and nnlqp-train from source and trains the
// predictor every server process and the oracle load. The training
// parameters are pinned: the predictor's accuracy is irrelevant here, its
// shape (hidden 48, depth 3) and bit-exact reproducibility are what count.
func prepare() (*env, error) {
	start := time.Now()
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	e := &env{root: root, outDir: filepath.Join(root, "benchmark", "out")}
	bin := filepath.Join(e.outDir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return nil, err
	}
	removeRunDirs(e.outDir) // left by a run that was killed
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/nnlqp-server", "./cmd/nnlqp-train")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build: %v\n%s", err, out)
	}
	e.serverBin = filepath.Join(bin, "nnlqp-server")
	e.predPath = filepath.Join(e.outDir, "pred.gob")
	train := exec.Command(filepath.Join(bin, "nnlqp-train"),
		"-out", e.predPath, "-platforms", platform, "-per-platform", "40",
		"-epochs", "3", "-eval", "0", "-progress=false", "-seed", "1")
	train.Dir = e.outDir
	if out, err := train.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("nnlqp-train: %v\n%s", err, out)
	}
	f, err := os.Open(e.predPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if e.pred, err = core.Load(f); err != nil {
		return nil, fmt.Errorf("load %s: %w", e.predPath, err)
	}
	e.prepS = time.Since(start).Seconds()
	return e, nil
}

// removeRunDirs deletes every fleet's temp directory under outDir. Runs in
// one checkout are sequential (they share bin/ and pred.gob), so any that
// exist belong to no live run.
func removeRunDirs(outDir string) {
	dirs, _ := filepath.Glob(filepath.Join(outDir, "run-*")) // the pattern is well-formed
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// proc is one child nnlqp-server process.
type proc struct {
	name string
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the process has been reaped
	tail *tailBuffer   // last output lines, for error messages
}

// children tracks live child processes so every exit path can reap them.
var children = struct {
	sync.Mutex
	live map[*proc]struct{}
}{live: make(map[*proc]struct{})}

const (
	readyDeadline = 20 * time.Second
	stopGrace     = 5 * time.Second
)

// spawn starts the server binary with args on an ephemeral loopback port and
// returns once it answers /stats. The child picks the port (-addr
// 127.0.0.1:0) and prints it, so no port is guessed and none can be held by
// a stale process.
func spawn(e *env, name string, args ...string) (*proc, error) {
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	p := &proc{name: name, done: make(chan struct{}), tail: &tailBuffer{}}
	p.cmd = exec.Command(e.serverBin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	p.cmd.Stdout = pw
	p.cmd.Stderr = pw
	// Backstop for exit paths that run no deferred call (a panic on another
	// goroutine, SIGKILL): the kernel kills the child when this process dies.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		pr.Close()
		pw.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	pw.Close()
	children.Lock()
	children.live[p] = struct{}{}
	children.Unlock()

	addrCh := make(chan string, 1)
	go func() {
		defer pr.Close()
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			line := sc.Text()
			p.tail.add(line)
			if _, rest, ok := strings.Cut(line, "listening on http://"); ok && len(addrCh) == 0 {
				addr, _, _ := strings.Cut(rest, ",")
				addrCh <- strings.TrimSpace(addr)
			}
		}
	}()
	go func() {
		_ = p.cmd.Wait() // exit status is read from ProcessState by whoever cares
		children.Lock()
		delete(children.live, p)
		children.Unlock()
		close(p.done)
	}()

	deadline := time.NewTimer(readyDeadline)
	defer deadline.Stop()
	select {
	case p.addr = <-addrCh:
	case <-p.done:
		return nil, fmt.Errorf("%s exited before listening (%v):\n%s", name, p.cmd.ProcessState, p.tail)
	case <-deadline.C:
		p.stop()
		return nil, fmt.Errorf("%s did not report its address within %s:\n%s", name, readyDeadline, p.tail)
	}
	for {
		resp, err := control.Get("http://" + p.addr + "/stats")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		select {
		case <-p.done:
			return nil, fmt.Errorf("%s exited before answering /stats:\n%s", name, p.tail)
		case <-deadline.C:
			p.stop()
			return nil, fmt.Errorf("%s did not answer /stats within %s (last error: %v):\n%s", name, readyDeadline, err, p.tail)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop asks the child to drain (SIGTERM), kills it if it has not exited
// within stopGrace, and returns once it has been reaped.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
	select {
	case <-p.done:
	case <-time.After(stopGrace):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// killChildren reaps every live child; the last line of defence in main.
func killChildren() {
	children.Lock()
	live := make([]*proc, 0, len(children.live))
	for p := range children.live {
		live = append(live, p)
	}
	children.Unlock()
	for _, p := range live {
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// tailBuffer keeps the last few output lines of a child.
type tailBuffer struct {
	mu    sync.Mutex
	lines []string
}

func (t *tailBuffer) add(line string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.lines) == 20 {
		t.lines = t.lines[1:]
	}
	t.lines = append(t.lines, line)
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, "\n")
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it is
// 100 on every Linux architecture Go supports.
const clockTick = 100

// cpuSeconds reads the child's consumed user+system CPU time.
func (p *proc) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the ") ".
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat line %q", raw)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc stat line %q", raw)
	}
	return (utime + stime) / clockTick, nil
}

// rssPeakMB reads the child's resident-set high-water mark.
func (p *proc) rssPeakMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("unexpected VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// control is the client for everything that is not load: readiness polls,
// /stats, /cluster, /checkpoint.
var control = &http.Client{Timeout: 30 * time.Second}

func getJSON(url string, out any) error {
	resp, err := control.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// counters is the numeric part of one /stats answer, by wire name
// ("queries", "l1_hits", "db_fsyncs", ...): the benchmark reads the server's
// counters the way any outside observer does.
type counters map[string]float64

// get panics on a name /stats does not carry: a typo here would otherwise
// read as a layer that did nothing.
func (c counters) get(name string) float64 {
	v, ok := c[name]
	if !ok {
		panic("benchmark: /stats has no counter " + name)
	}
	return v
}

func (p *proc) stats() (counters, error) {
	var raw map[string]any
	if err := getJSON("http://"+p.addr+"/stats", &raw); err != nil {
		return nil, err
	}
	c := make(counters)
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			c[k] = f
		}
	}
	return c, nil
}

func (p *proc) clusterStatus() (cluster.StatusResponse, error) {
	var st cluster.StatusResponse
	err := getJSON("http://"+p.addr+"/cluster", &st)
	return st, err
}

// checkpoint forces a checkpoint and reports how long the call took.
func (p *proc) checkpoint() (time.Duration, error) {
	start := time.Now()
	resp, err := control.Post("http://"+p.addr+"/checkpoint", "application/json", nil)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("POST /checkpoint on %s: status %d", p.name, resp.StatusCode)
	}
	return time.Since(start), nil
}

// fleet is the server side of one workload: one server, or a router in
// front of replicas. Clients talk to front; counters come from replicas.
type fleet struct {
	dir      string // temp directory holding every replica's -db directory
	replicas []*proc
	dbDirs   []string
	router   *proc // nil when unrouted
}

func (f *fleet) front() *proc {
	if f.router != nil {
		return f.router
	}
	return f.replicas[0]
}

func (f *fleet) procs() []*proc {
	if f.router != nil {
		return append([]*proc{f.router}, f.replicas...)
	}
	return f.replicas
}

// startFleet spawns a fresh set of server processes on empty -db
// directories under a new temp directory.
func startFleet(e *env, replicas int, routed bool, replicaArgs []string) (*fleet, error) {
	dir, err := os.MkdirTemp(e.outDir, "run-*")
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir}
	for i := 0; i < replicas; i++ {
		dbDir := filepath.Join(dir, fmt.Sprintf("db-%d", i))
		args := append([]string{"-db", dbDir, "-sync", "always", "-predictor", e.predPath}, replicaArgs...)
		p, err := spawn(e, fmt.Sprintf("replica-%d", i), args...)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.replicas = append(f.replicas, p)
		f.dbDirs = append(f.dbDirs, dbDir)
	}
	if routed {
		addrs := make([]string, len(f.replicas))
		for i, p := range f.replicas {
			addrs[i] = p.addr
		}
		f.router, err = spawn(e, "router", "-route", strings.Join(addrs, ","), "-route-policy", "affinity")
		if err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

// stopProcs stops every process but keeps the directories (for the reopen
// probe); stop also removes them.
func (f *fleet) stopProcs() {
	for _, p := range f.procs() {
		p.stop()
	}
	f.router, f.replicas = nil, nil
}

func (f *fleet) stop() {
	f.stopProcs()
	os.RemoveAll(f.dir)
}

// sum adds one /proc reading over every server-side process.
func (f *fleet) sum(read func(*proc) (float64, error)) (float64, error) {
	var sum float64
	for _, p := range f.procs() {
		v, err := read(p)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

func (f *fleet) cpuSeconds() (float64, error) { return f.sum((*proc).cpuSeconds) }
func (f *fleet) rssPeakMB() (float64, error)  { return f.sum((*proc).rssPeakMB) }

// dirBytes sums regular-file sizes under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}
