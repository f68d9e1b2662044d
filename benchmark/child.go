//go:build linux

package main

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"rangesearch/internal/server"
)

// A leaked rsserve keeps a core busy and poisons every later run, so every
// child is registered here and killAll runs on each exit path the process
// controls (return, failure, ceiling, SIGINT/SIGTERM). Pdeathsig covers
// the ones it does not (a panic on another goroutine, SIGKILL).
var (
	childMu  sync.Mutex
	children = map[*child]struct{}{}
)

type child struct {
	cmd    *exec.Cmd
	addr   string
	logf   string
	exited chan struct{} // closed once Wait has returned
}

func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startServer execs rsserve with args on a free port and returns once a
// connection to it is established; the returned client is that connection.
func startServer(bin, dir string, args []string) (*child, *server.Client, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, nil, err
	}
	_, port, _ := net.SplitHostPort(addr)
	logf := filepath.Join(dir, "rsserve-"+port+".log")
	out, err := os.Create(logf)
	if err != nil {
		return nil, nil, err
	}
	defer out.Close() // the child holds its own descriptor
	c := &child{
		cmd:    exec.Command(bin, append([]string{"-addr", addr}, args...)...),
		addr:   addr,
		logf:   logf,
		exited: make(chan struct{}),
	}
	c.cmd.Stdout, c.cmd.Stderr = out, out
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	started := make(chan error, 1)
	go func() {
		// Pdeathsig fires when the forking *thread* exits, so that thread
		// is pinned until the child has been reaped.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		err := c.cmd.Start()
		started <- err
		if err == nil {
			_ = c.cmd.Wait()
			close(c.exited)
		}
	}()
	if err := <-started; err != nil {
		return nil, nil, fmt.Errorf("exec %s: %w", bin, err)
	}
	childMu.Lock()
	children[c] = struct{}{}
	childMu.Unlock()

	deadline := time.Now().Add(10 * time.Second)
	for {
		cl, err := server.Dial(addr, server.ClientOptions{DialTimeout: time.Second})
		if err == nil {
			return c, cl, nil
		}
		select {
		case <-c.exited:
			c.kill()
			return nil, nil, fmt.Errorf("rsserve exited during boot: %s", c.logTail())
		default:
		}
		if time.Now().After(deadline) {
			c.kill()
			return nil, nil, fmt.Errorf("rsserve not accepting on %s after 10s: %s", addr, c.logTail())
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// kill SIGKILLs the child and waits until it has been reaped.
func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	<-c.exited
	childMu.Lock()
	delete(children, c)
	childMu.Unlock()
}

func (c *child) pid() int { return c.cmd.Process.Pid }

func (c *child) logTail() string {
	raw, err := os.ReadFile(c.logf)
	if err != nil {
		return "(no log)"
	}
	if len(raw) > 600 {
		raw = raw[len(raw)-600:]
	}
	return string(raw)
}

func killAll() {
	childMu.Lock()
	cs := make([]*child, 0, len(children))
	for c := range children {
		cs = append(cs, c)
	}
	childMu.Unlock()
	for _, c := range cs {
		c.kill()
	}
}

// buildServer compiles cmd/rsserve into dir; it runs before any timer.
func buildServer(dir string) (string, error) {
	bin := filepath.Join(dir, "rsserve")
	cmd := exec.Command("go", "build", "-o", bin, "rangesearch/cmd/rsserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build rangesearch/cmd/rsserve: %v\n%s", err, out)
	}
	return bin, nil
}
