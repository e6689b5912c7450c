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
	"strconv"
	"syscall"
	"time"
)

// serverProc is one `crowdtopk serve` process of the commit under test,
// listening on a loopback port, with its stdout and stderr in a log file.
type serverProc struct {
	cmd     *exec.Cmd
	base    string
	logPath string
	done    chan struct{} // closed once cmd.Wait has returned
}

// errPortTaken marks a server that could not bind the port it was given.
var errPortTaken = errors.New("port taken before the server bound it")

// startServer execs the serve binary and returns once GET /ready answers
// 200. dataDir empty serves memory-only; otherwise the durable tier runs
// with -fsync always. The port is free when the benchmark picks it, but
// another process may bind it before the server does: a server that exits
// for that reason is started again on another port, twice at most.
func startServer(bin, logPath, dataDir string) (*serverProc, error) {
	var err error
	for try := 0; try < 3; try++ {
		var s *serverProc
		if s, err = startServerOnce(bin, logPath, dataDir); !errors.Is(err, errPortTaken) {
			return s, err
		}
	}
	return nil, err
}

func startServerOnce(bin, logPath, dataDir string) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := []string{"serve", "-addr", addr, "-trace-sample", "0", "-log-format", "json"}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir, "-fsync", "always")
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, even one killed by a signal.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &serverProc{cmd: cmd, base: "http://" + addr, logPath: logPath, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(s.done)
	}()
	probe := &http.Client{Timeout: time.Second}
	deadline := start.Add(60 * time.Second)
	for {
		select {
		case <-s.done:
			err := fmt.Errorf("server exited before ready (%v); log: %s", cmd.ProcessState, logPath)
			if log, _ := os.ReadFile(logPath); bytes.Contains(log, []byte("address already in use")) {
				err = fmt.Errorf("%w: %w", errPortTaken, err)
			}
			return nil, err
		default:
		}
		resp, err := probe.Get(s.base + "/ready")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				probe.CloseIdleConnections()
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("server not ready after 60s; log: %s", logPath)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (s *serverProc) pid() int { return s.cmd.Process.Pid }

// stop asks for the graceful shutdown (SIGTERM: drain, flush dirty sessions,
// close the store) and waits for the process to exit, killing it after 30s.
func (s *serverProc) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
		if !s.cmd.ProcessState.Success() {
			return fmt.Errorf("server exited with %v; log: %s", s.cmd.ProcessState, s.logPath)
		}
		return nil
	case <-time.After(30 * time.Second):
		s.kill()
		return errors.New("server ignored SIGTERM for 30s")
	}
}

// kill ends the process hard and waits for it.
func (s *serverProc) kill() {
	_ = s.cmd.Process.Kill()
	<-s.done
}

func (s *serverProc) logBytes() (int64, error) {
	fi, err := os.Stat(s.logPath)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	var lc net.ListenConfig
	l, err := lc.Listen(context.Background(), "tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}
