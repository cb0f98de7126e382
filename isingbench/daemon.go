package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
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

	"tpuising/internal/service"
)

// daemon is one isingd child process on the load process's CPU: GOMAXPROCS=1
// and a single worker, so every job runs on the same thread budget as the
// HTTP handlers.
type daemon struct {
	cmd     *exec.Cmd
	base    string        // http://127.0.0.1:port
	done    chan struct{} // closed once the process has exited
	waitErr error         // cmd.Wait's result, valid after done
	stderr  bytes.Buffer
}

// startDaemon execs isingd, over a fresh, empty checkpoint directory unless
// ckptDir is "", and waits until GET /v1/stats answers 200. The returned
// duration is the set-up time: exec to the first 200.
func startDaemon(bin, ckptDir string, hc *http.Client) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-addr", "127.0.0.1:" + strconv.Itoa(port), "-workers", "1", "-log-level", "warn"}
	if ckptDir != "" {
		if err := os.RemoveAll(ckptDir); err != nil {
			return nil, 0, err
		}
		if err := os.MkdirAll(ckptDir, 0o755); err != nil {
			return nil, 0, err
		}
		args = append(args, "-checkpoint-dir", ckptDir)
	}
	d := &daemon{base: "http://127.0.0.1:" + strconv.Itoa(port), done: make(chan struct{})}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	// Should this process die without stopping the daemon, the kernel does.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d.cmd.Stderr = &d.stderr
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("exec isingd: %w", err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.done)
	}()
	for {
		resp, err := hc.Get(d.base + "/v1/stats")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		select {
		case <-d.done:
			return nil, 0, fmt.Errorf("isingd exited during start-up (%v): %s", d.waitErr, d.stderr.String())
		case <-time.After(100 * time.Microsecond):
		}
		if time.Since(start) > 10*time.Second {
			d.stop()
			return nil, 0, errors.New("isingd did not answer /v1/stats within 10 s")
		}
	}
}

// stop asks the daemon to shut down, kills it if it has not exited after
// ten seconds, and waits until the process is gone. Stopping a stopped
// daemon returns at once.
func (d *daemon) stop() {
	// Signalling an exited process fails harmlessly.
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// stats fetches the daemon's counter snapshot.
func (d *daemon) stats(hc *http.Client) (service.Stats, error) {
	var st service.Stats
	resp, err := hc.Get(d.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// metricsText fetches the Prometheus exposition verbatim (kept in the trace
// output for reading next to the spans).
func (d *daemon) metricsText(hc *http.Client) (string, error) {
	resp, err := hc.Get(d.base + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// peakRSSMB reads the daemon's VmHWM (peak resident set) in MB.
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}
