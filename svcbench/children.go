package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// env locates the checkout the benchmark runs in.
type env struct {
	bin string // built child binaries
	out string // trace files, child logs, temporary data dirs
}

// findRoot walks up from the working directory to the repository root, so
// the benchmark runs the same from the root, from its own directory or
// under `go test`.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(data, []byte("module cwcflow\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("svcbench: not inside a cwcflow checkout (no go.mod of module cwcflow above the working directory)")
		}
		dir = parent
	}
}

// buildChildren compiles the real cwc-serve and cwc-dist binaries from the
// checkout's source into bin. Its time is never part of setup_s.
func buildChildren(ctx context.Context, root, bin string) error {
	if err := os.MkdirAll(bin, 0o777); err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin+string(filepath.Separator), "./cmd/cwc-serve", "./cmd/cwc-dist")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("svcbench: building children: %w\n%s", err, out)
	}
	return nil
}

// fleet is the set of server-side child processes of one workload and the
// temporary directory they write to.
type fleet struct {
	base   string // http://127.0.0.1:<port> of cwc-serve
	dir    string
	procs  []*exec.Cmd
	exited []chan struct{} // closed once the matching proc was reaped
}

// freeAddr asks the kernel for an unused loopback port. The listener is
// closed before the child binds the port, which leaves a window for another
// process to take it; a child that loses that race fails set-up loudly.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func (f *fleet) spawn(logName, bin string, args ...string) error {
	logf, err := os.Create(filepath.Join(f.dir, logName))
	if err != nil {
		return err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return err
	}
	done := make(chan struct{})
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: children are killed
		close(done)
	}()
	f.procs = append(f.procs, cmd)
	f.exited = append(f.exited, done)
	return nil
}

// startFleet spawns the workload's processes and returns once the server
// answers /healthz and any remote worker accepts connections. On error
// everything already started is stopped.
func startFleet(ctx context.Context, e env, w workload) (_ *fleet, err error) {
	if err := os.MkdirAll(e.out, 0o777); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.out, "run-")
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir}
	defer func() {
		if err != nil {
			err = fmt.Errorf("%w\n%s", err, f.logTail())
			f.stop()
		}
	}()
	listen, err := freeAddr()
	if err != nil {
		return nil, err
	}
	f.base = "http://" + listen
	args := []string{"-listen", listen,
		"-sim-workers", strconv.Itoa(w.simWorkers), "-stat-engines", strconv.Itoa(w.statEngines)}
	var workerAddr string
	if w.remote {
		if workerAddr, err = freeAddr(); err != nil {
			return nil, err
		}
		if err := f.spawn("worker.log", filepath.Join(e.bin, "cwc-dist"), "worker", "-listen", workerAddr, "-sim-workers", "1"); err != nil {
			return nil, err
		}
		args = append(args, "-workers", workerAddr)
	}
	if w.durable {
		args = append(args, "-data-dir", filepath.Join(dir, "data"))
	}
	if err := f.spawn("serve.log", filepath.Join(e.bin, "cwc-serve"), args...); err != nil {
		return nil, err
	}
	if err := f.poll(ctx, func() bool {
		resp, err := http.Get(f.base + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}); err != nil {
		return nil, fmt.Errorf("svcbench: cwc-serve never became healthy: %w", err)
	}
	if w.remote {
		if err := f.poll(ctx, func() bool {
			c, err := net.Dial("tcp", workerAddr)
			if err != nil {
				return false
			}
			c.Close()
			return true
		}); err != nil {
			return nil, fmt.Errorf("svcbench: cwc-dist worker never accepted: %w", err)
		}
	}
	return f, nil
}

// poll retries ready every 5 ms until it holds, a child dies, ctx ends or
// 15 s pass.
func (f *fleet) poll(ctx context.Context, ready func() bool) error {
	deadline := time.Now().Add(15 * time.Second)
	for !ready() {
		for _, done := range f.exited {
			select {
			case <-done:
				return errors.New("a child process exited during set-up")
			default:
			}
		}
		if time.Now().After(deadline) {
			return errors.New("timed out")
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
	return nil
}

// stop kills every child, waits until each has been reaped, and removes
// the fleet's directory. Safe to call twice.
func (f *fleet) stop() {
	for i, cmd := range f.procs {
		_ = cmd.Process.Kill() // already-exited children report an error we do not need
		<-f.exited[i]
	}
	f.procs, f.exited = nil, nil
	_ = os.RemoveAll(f.dir) // best effort: a leftover temp dir is not a benchmark failure
}

func (f *fleet) pids() []int {
	pids := make([]int, len(f.procs))
	for i, cmd := range f.procs {
		pids[i] = cmd.Process.Pid
	}
	return pids
}

// logTail returns the last lines of every child's log, for error reports.
func (f *fleet) logTail() string {
	var b strings.Builder
	logs, _ := filepath.Glob(filepath.Join(f.dir, "*.log"))
	for _, path := range logs {
		data, _ := os.ReadFile(path)
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) > 8 {
			lines = lines[len(lines)-8:]
		}
		fmt.Fprintf(&b, "--- %s\n%s\n", filepath.Base(path), strings.Join(lines, "\n"))
	}
	return b.String()
}

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat; it
// is 100 on every Linux ABI.
const clockTick = 100

// cpuSeconds sums utime+stime of the fleet's processes.
func (f *fleet) cpuSeconds() (float64, error) {
	var ticks uint64
	for _, pid := range f.pids() {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			return 0, err
		}
		// The command name (field 2) may contain spaces; the fixed-format
		// fields start after its closing parenthesis. utime and stime are
		// fields 14 and 15.
		rest := data[bytes.LastIndexByte(data, ')')+1:]
		fields := strings.Fields(string(rest))
		if len(fields) < 13 {
			return 0, fmt.Errorf("svcbench: short /proc/%d/stat", pid)
		}
		for _, s := range fields[11:13] {
			n, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return 0, err
			}
			ticks += n
		}
	}
	return float64(ticks) / clockTick, nil
}

// peakRSSMB sums the high-water resident set (VmHWM) of the processes.
func (f *fleet) peakRSSMB() float64 {
	var kb float64
	for _, pid := range f.pids() {
		data, _ := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				n, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				kb += n
			}
		}
	}
	return kb / 1024
}
