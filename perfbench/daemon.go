package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is a hybridgcd child process serving on a loopback port.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	dir  string

	mu     sync.Mutex
	log    bytes.Buffer
	exited chan struct{}
}

// startDaemon launches bin on an ephemeral loopback port with its data in
// dir, and returns once it is listening.
func startDaemon(bin, dir string, args ...string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	args = append([]string{"-addr", "127.0.0.1:0", "-data", dir}, args...)
	cmd := exec.Command(bin, args...)
	// The kernel kills the server if this process dies first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, dir: dir, exited: make(chan struct{})}
	cmd.Stderr = d
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			d.Write([]byte(line + "\n"))
			// "hybridgcd: listening on 127.0.0.1:PORT (role=...)"
			if rest, ok := strings.CutPrefix(line, "hybridgcd: listening on "); ok {
				addrc <- strings.Fields(rest)[0]
			}
		}
		_, _ = io.Copy(d, out)
		_ = cmd.Wait()
		close(d.exited)
	}()
	select {
	case d.addr = <-addrc:
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("hybridgcd exited before listening: %s", d.output())
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("hybridgcd did not start listening within 30s")
	}
}

// Write collects the server's output for error reports.
func (d *daemon) Write(p []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.Write(p)
}

func (d *daemon) output() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.TrimSpace(d.log.String())
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop drains the server with SIGTERM, kills it if the drain takes longer
// than 10s, waits until it has exited, and removes its data directory.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	_ = os.RemoveAll(d.dir)
}
