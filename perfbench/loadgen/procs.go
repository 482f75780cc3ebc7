package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one server child: its own process group, killed by the
// kernel if the load generator dies, and always waited for.
type proc struct {
	name string
	url  string
	cmd  *exec.Cmd
	done chan struct{} // closed once Wait has returned
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// procSet owns every child and temp dir of a run. cleanup stops the
// children (SIGTERM to drain, SIGKILL after a grace period), waits for
// each one and removes the temp dirs; it is safe to call from any exit
// path and more than once.
type procSet struct {
	bin     string // directory holding bisramgend and bisramgate
	tmpRoot string
	env     []string

	mu     sync.Mutex
	procs  []*proc
	runDir string // holds every temp dir and log of the run
	closed bool   // set by cleanup; no child starts after it
}

const (
	healthDeadline = 20 * time.Second
	drainGrace     = 10 * time.Second
	bindAttempts   = 5
)

func newProcSet(bin, tmpRoot string, gomaxprocs int) *procSet {
	return &procSet{
		bin:     bin,
		tmpRoot: tmpRoot,
		env:     append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs)),
	}
}

// tempDir makes a directory inside the run's directory, which
// cleanup removes.
func (ps *procSet) tempDir(prefix string) (string, error) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.closed {
		return "", errors.New("run is shutting down")
	}
	if ps.runDir == "" {
		if err := os.MkdirAll(ps.tmpRoot, 0o755); err != nil {
			return "", err
		}
		d, err := os.MkdirTemp(ps.tmpRoot, "run-")
		if err != nil {
			return "", err
		}
		ps.runDir = d
	}
	return os.MkdirTemp(ps.runDir, prefix+"-")
}

// start launches bin on a fresh loopback port and waits for /healthz.
// args receives the chosen base URL. A child that exits before it is
// healthy (a port taken between probe and bind) is retried on a new
// port.
func (ps *procSet) start(bin, logPath string, args func(url string) []string) (*proc, error) {
	var lastErr error
	for attempt := 0; attempt < bindAttempts; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		url := "http://127.0.0.1:" + strconv.Itoa(port)
		p, err := ps.spawn(bin, url, logPath, args(url))
		if err != nil {
			return nil, err
		}
		if err = waitHealthy(p); err == nil {
			return p, nil
		}
		lastErr = err
		ps.stop(p)
	}
	return nil, fmt.Errorf("%s: not healthy after %d ports: %w", bin, bindAttempts, lastErr)
}

func (ps *procSet) spawn(bin, url, logPath string, args []string) (*proc, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(filepath.Join(ps.bin, bin), args...)
	cmd.Env = ps.env
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	// Start under the lock, so cleanup either sees the child or has
	// already refused it.
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.closed {
		return nil, errors.New("run is shutting down")
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &proc{name: bin, url: url, cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: SIGTERM/SIGKILL end every child
		close(p.done)
	}()
	ps.procs = append(ps.procs, p)
	return p, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

var healthClient = &http.Client{Timeout: time.Second}

func waitHealthy(p *proc) error {
	deadline := time.Now().Add(healthDeadline)
	for time.Now().Before(deadline) {
		if p.exited() {
			return errors.New(p.name + " exited before it was healthy")
		}
		resp, err := healthClient.Get(p.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New(p.name + " /healthz deadline exceeded")
}

// stop drains p with SIGTERM to its process group, falls back to
// SIGKILL after drainGrace, and returns once the child is reaped.
func (ps *procSet) stop(p *proc) {
	if !p.exited() {
		_ = syscall.Kill(-p.pid(), syscall.SIGTERM) // ESRCH: already gone
		select {
		case <-p.done:
		case <-time.After(drainGrace):
			_ = syscall.Kill(-p.pid(), syscall.SIGKILL)
			<-p.done
		}
	}
}

// stopAll stops every child, newest first, so a gateway goes before
// its shards.
func (ps *procSet) stopAll() {
	ps.mu.Lock()
	ps.closed = true
	procs := append([]*proc(nil), ps.procs...)
	ps.mu.Unlock()
	for i := len(procs) - 1; i >= 0; i-- {
		ps.stop(procs[i])
	}
}

func (ps *procSet) cleanup() {
	ps.stopAll()
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.runDir != "" {
		_ = os.RemoveAll(ps.runDir) // best effort: the result does not depend on it
		ps.runDir = ""
	}
}

// procUsage reads a live child's CPU time (user+system) and peak RSS
// from /proc.
func procUsage(pid int) (cpu time.Duration, hwmKiB int64, err error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime and stime are fields 14 and 15, in clock ticks.
	rest := string(stat[strings.LastIndexByte(string(stat), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, 0, err
	}
	const clockTicks = 100 // USER_HZ on Linux
	cpu = time.Duration(ut+st) * time.Second / clockTicks

	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			hwmKiB, err = strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return cpu, hwmKiB, err
		}
	}
	return 0, 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
