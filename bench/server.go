package main

import (
	"bytes"
	"encoding/json"
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

	"lopram/internal/jobqueue"
)

// server is one serving instance the workload runs against.
type server struct {
	base string
	// pid is the serving process, read for CPU time and peak memory; 0
	// when the process is not on this host.
	pid int
	// tracePath holds the flight-recorder JSONL once stop returns; empty
	// for an untraced server.
	tracePath string
	stop      func() error
}

// launcher starts a server and returns once it answers /healthz.
type launcher func(traced bool) (*server, error)

// lopramdDefaults is the queue configuration lopramd serves with when
// started without flags; the in-process probes run against it.
func lopramdDefaults() jobqueue.Config {
	return jobqueue.Config{QueueDepth: 1024, BatchShare: 0.5, CacheSize: 512, DefaultTimeout: 60 * time.Second}
}

// buildDaemon compiles cmd/lopramd from the source tree at root into dir.
func buildDaemon(root, dir string) (string, error) {
	bin := filepath.Join(dir, "lopramd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/lopramd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/lopramd under %s: %v\n%s", root, err, out)
	}
	return bin, nil
}

// daemonLauncher starts the lopramd binary with its default flags on a
// free loopback port; a traced daemon writes its flight record into dir.
func daemonLauncher(bin, dir string) launcher {
	return func(traced bool) (*server, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addr := ln.Addr().String()
		ln.Close()
		args := []string{"-addr", addr}
		srv := &server{base: "http://" + addr}
		if traced {
			srv.tracePath = filepath.Join(dir, "trace-"+strings.ReplaceAll(addr, ":", "-")+".jsonl")
			args = append(args, "-trace-out", srv.tracePath)
		}
		cmd := exec.Command(bin, args...)
		var log bytes.Buffer
		cmd.Stdout, cmd.Stderr = &log, &log
		// Backstop: the daemon dies with the benchmark even if the
		// benchmark is killed before it can stop the daemon.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		// exited closes once Wait has reaped the daemon; waitErr is set
		// before it closes.
		exited := make(chan struct{})
		var waitErr error
		go func() {
			waitErr = cmd.Wait()
			close(exited)
		}()
		srv.pid = cmd.Process.Pid
		srv.stop = func() error {
			_ = cmd.Process.Signal(syscall.SIGTERM)
			select {
			case <-exited:
				if waitErr != nil {
					return fmt.Errorf("lopramd exited with %v: %s", waitErr, log.String())
				}
				return nil
			case <-time.After(30 * time.Second):
				_ = cmd.Process.Kill()
				<-exited
				return errors.New("lopramd ignored SIGTERM for 30s and was killed")
			}
		}
		if err := waitHealthy(srv.base, exited); err != nil {
			_ = cmd.Process.Kill()
			<-exited
			return nil, fmt.Errorf("%v: %s", err, log.String())
		}
		return srv, nil
	}
}

// externalLauncher targets a daemon someone else runs.
func externalLauncher(base string) launcher {
	base = strings.TrimSuffix(base, "/")
	return func(traced bool) (*server, error) {
		if traced {
			return nil, errors.New("a traced run restarts the daemon with -trace-out, so it cannot use -addr")
		}
		if err := waitHealthy(base, nil); err != nil {
			return nil, err
		}
		return &server{base: base, stop: func() error { return nil }}, nil
	}
}

// waitHealthy polls /healthz until it answers 200, exited closes, or ten
// seconds pass.
func waitHealthy(base string, exited <-chan struct{}) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := hc.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return nil
			}
		}
		select {
		case <-exited:
			return errors.New("lopramd exited before answering /healthz")
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/healthz did not answer within 10s", base)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// getJSON decodes a GET response into v.
func getJSON(url string, v any) error {
	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// queueCounters is the part of /v1/metrics a traced run reads.
type queueCounters struct {
	Completed    int64   `json:"completed"`
	Failed       int64   `json:"failed"`
	Rejected     int64   `json:"rejected"`
	Timeouts     int64   `json:"timeouts"`
	Coalesced    int64   `json:"coalesced"`
	CacheHits    int64   `json:"cache_hits"`
	TraceRecords int64   `json:"trace_records"`
	TraceDropped int64   `json:"trace_dropped"`
	MutexWaitS   float64 `json:"runtime_mutex_wait_seconds"`
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times;
// 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// procCPU returns a process's user plus system CPU time.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name, which may hold spaces;
	// utime and stime are fields 14 and 15 of the whole line.
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// procPeakRSS returns a process's peak resident set (VmHWM) in MB.
func procPeakRSS(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no VmHWM", pid)
}

// selfCPU returns this process's user plus system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
