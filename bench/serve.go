package main

import (
	"bufio"
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

// serverProc is one running hpcserve process.
type serverProc struct {
	cmd  *exec.Cmd
	base string
	exit chan error // receives cmd.Wait's result once
	log  *os.File
}

// bootTimeout bounds exec-to-ready for one boot.
const bootTimeout = 90 * time.Second

// startServer execs hpcserve over bootDir with a fresh WAL under walDir and
// waits for /readyz to answer 200. It returns the exec-to-ready time.
func startServer(ctx context.Context, bin, bootDir, walDir, logPath string, flags []string) (*serverProc, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	if err := os.RemoveAll(walDir); err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := append([]string{
		"-data", bootDir, "-addr", addr,
		"-wal", walDir, "-wal-fsync", "interval", "-snapshot-every", "30s",
	}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	cmd.Stdout = logf
	p := &serverProc{cmd: cmd, base: "http://" + addr, exit: make(chan error, 1), log: logf}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() { p.exit <- cmd.Wait() }()

	poll := &http.Client{Timeout: time.Second, Transport: &http.Transport{Proxy: nil, DisableKeepAlives: true}}
	deadline := start.Add(bootTimeout)
	for {
		resp, err := poll.Get(p.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(start), nil
			}
		}
		select {
		case err := <-p.exit:
			p.exit <- err
			p.stop()
			return nil, 0, fmt.Errorf("hpcserve exited before ready (%v); log: %s", err, logPath)
		case <-ctx.Done():
			p.stop()
			return nil, 0, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, 0, fmt.Errorf("hpcserve not ready after %v; log: %s", bootTimeout, logPath)
		}
	}
}

// stop interrupts the server (it drains and syncs its WAL), kills it if it
// has not exited within 10s, and waits for it.
func (p *serverProc) stop() error {
	defer p.log.Close()
	_ = p.cmd.Process.Signal(os.Interrupt) // fails only if it already exited
	select {
	case err := <-p.exit:
		return err
	case <-time.After(10 * time.Second):
	}
	_ = p.cmd.Process.Kill() // the Wait below reports how it ended
	return <-p.exit
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// scrape reads the server's Prometheus text metrics into a map keyed by the
// series name with its labels, e.g. `hpcserve_requests_total{route="/v1/events",code="200"}`.
func scrape(base string) (map[string]float64, error) {
	c := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{Proxy: nil, DisableKeepAlives: true}}
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// procStat is a process's CPU time and resident-memory high-water mark.
type procStat struct {
	cpu    time.Duration // user + system
	hwmKiB float64
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTicks = 100

func readProc(pid int) (procStat, error) {
	var ps procStat
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesized command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return ps, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return ps, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return ps, err
	}
	ps.cpu = time.Duration(ut+st) * time.Second / clockTicks
	b, err = os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return ps, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return ps, err
			}
			ps.hwmKiB = kb
		}
	}
	return ps, nil
}
