package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is a server under test running as a child process.
type proc struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{}
}

// freeAddr picks a loopback port the kernel considers free.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// spawn starts bin with args plus -addr and returns once GET /api/ping
// answers 200, together with the time from spawn to that answer.
func spawn(bin string, args []string, logPath string) (*proc, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &proc{cmd: cmd, addr: addr, exited: make(chan struct{})}
	go func() { cmd.Wait(); close(p.exited) }()
	hc := &http.Client{Timeout: time.Second}
	for deadline := start.Add(60 * time.Second); time.Now().Before(deadline); {
		select {
		case <-p.exited:
			return nil, 0, fmt.Errorf("%s exited during start-up (log: %s)", bin, logPath)
		default:
		}
		resp, err := hc.Get("http://" + addr + "/api/ping")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return p, time.Since(start), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	p.kill()
	return nil, 0, fmt.Errorf("%s did not answer /api/ping within 60s", bin)
}

// stop asks the server to drain (SIGTERM) and waits for it to exit.
func (p *proc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		p.kill()
		return err
	}
	select {
	case <-p.exited:
		return nil
	case <-time.After(60 * time.Second):
		p.kill()
		return errors.New("server did not drain within 60s")
	}
}

func (p *proc) kill() {
	p.cmd.Process.Kill()
	<-p.exited
}

// cpuTime is the process's user+system CPU time so far (10 ms ticks).
func (p *proc) cpuTime() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	f := strings.Fields(string(raw[bytes.LastIndexByte(raw, ')')+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// memory reads a /proc status field of the process (VmRSS, VmHWM) in MiB.
func (p *proc) memory(field string) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// fsyncProbe times n 4 KiB write+fsync rounds on a file in dir: the disk
// weather under the data directory, measured before the workload so a
// slow disk is not mistaken for a slow program. Returns the median in µs.
func fsyncProbe(dir string, n int) (float64, error) {
	f, err := os.Create(filepath.Join(dir, "fsync-probe"))
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	var d dist
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		d.add(float64(time.Since(t0)) / float64(time.Microsecond))
	}
	return d.q(0.5), f.Close()
}
