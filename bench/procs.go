//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// buildDir holds everything the benchmark leaves behind apart from
// bench/out: the daemons' binaries and each run's scratch directory.
// It is relative to the working directory, which must be the module
// root, and is the directory the driver already reserves for builds.
const buildDir = ".bench_build"

// buildDaemons compiles the two programs under test from the checkout
// the benchmark runs in. It runs before any timer starts.
func buildDaemons() error {
	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("run from the module root: %v", err)
	}
	bin := filepath.Join(buildDir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", bin+"/", "./cmd/pi2md", "./cmd/pi2mrouter")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building daemons: %v", err)
	}
	return nil
}

// proc is one child process under test.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once Wait has returned
}

// live tracks every child still running so that a failing run can stop
// them all before it exits.
var live struct {
	sync.Mutex
	procs map[*proc]struct{}
}

// startProc launches a child with its output appended to logPath. The
// child is killed by the kernel if the benchmark itself dies.
func startProc(name, logPath string, args ...string) (*proc, error) {
	lf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	bin, err := filepath.Abs(filepath.Join(buildDir, "bin", name))
	if err != nil {
		lf.Close()
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("starting %s: %v", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: lf, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(p.done)
	}()
	live.Lock()
	if live.procs == nil {
		live.procs = map[*proc]struct{}{}
	}
	live.procs[p] = struct{}{}
	live.Unlock()
	return p, nil
}

// stop kills the child and waits until it has ended. The daemons are
// crash-safe by design and their directories are deleted afterwards,
// so there is nothing a graceful drain would preserve.
func (p *proc) stop() {
	p.cmd.Process.Kill()
	<-p.done
	p.log.Close()
	live.Lock()
	delete(live.procs, p)
	live.Unlock()
}

// stopAll stops every child still running.
func stopAll() {
	live.Lock()
	ps := make([]*proc, 0, len(live.procs))
	for p := range live.procs {
		ps = append(ps, p)
	}
	live.Unlock()
	for _, p := range ps {
		p.stop()
	}
}

// cpuSeconds is the child's user+sys CPU so far.
func (p *proc) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(data))
}

// peakRSSMiB is the child's resident-set high-water mark.
func (p *proc) peakRSSMiB() (float64, error) {
	return pidPeakRSSMiB(p.cmd.Process.Pid)
}

func pidPeakRSSMiB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(data))
}

// selfCPUSeconds is this process's own user+sys CPU so far.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// freeAddr returns a loopback address nothing listens on right now.
// The daemons cannot report a kernel-chosen port, so one is chosen for
// them; a child that loses the race for it fails the readiness wait.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// readyPoll is how often readiness is polled; it bounds the jitter the
// wait adds to setup_s.
const readyPoll = 2 * time.Millisecond

// waitReady polls until ready returns true, the child exits, or ten
// seconds pass.
func (p *proc) waitReady(ready func() bool) error {
	deadline := time.Now().Add(10 * time.Second)
	for !ready() {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before it was ready (see %s)", p.name, p.log.Name())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 10s (see %s)", p.name, p.log.Name())
		}
		time.Sleep(readyPoll)
	}
	return nil
}

// getOK reports whether GET url answers 200.
func getOK(c *http.Client, url string) bool {
	resp, err := c.Get(url)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// getJSON decodes the JSON document at url into v.
func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
