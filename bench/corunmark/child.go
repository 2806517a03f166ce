package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// userHz is the unit of utime/stime in /proc/<pid>/stat; Linux fixes
// it at 100 for user space on every architecture Go runs on.
const userHz = 100

// child is one corund process launched through its public flags.
type child struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:<port>
	logPath string
	exited  chan struct{} // closed once the process has been waited for
	waitErr error         // cmd.Wait's result, valid after exited
}

// freeAddrs finds n distinct free loopback ports by binding them all
// before releasing any (released one by one, the kernel may hand the
// same port out twice).
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// childEnv is the harness's environment without the Go runtime knobs,
// so a tuned shell cannot change what the system under test does.
func childEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		name, _, _ := strings.Cut(kv, "=")
		if name == "GOGC" || name == "GOMAXPROCS" || name == "GODEBUG" {
			continue
		}
		env = append(env, kv)
	}
	return env
}

// startChild execs corund on addr with the given flags; its log goes
// to logPath. It does not wait for readiness.
func startChild(bin, addr, logPath string, args ...string) (*child, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Env = childEnv()
	cmd.Stdout = logf
	cmd.Stderr = logf
	// If the harness dies without reaching its clean-up, the kernel
	// takes the child down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	c := &child{cmd: cmd, base: "http://" + addr, logPath: logPath, exited: make(chan struct{})}
	// Reaps the child whenever it ends; stop waits for this.
	go func() {
		c.waitErr = cmd.Wait()
		close(c.exited)
	}()
	return c, nil
}

// waitReady polls /readyz until it answers 200; a child that exits
// first (its port taken, a bad flag) fails at once.
func (c *child) waitReady(hc *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-c.exited:
			return fmt.Errorf("%s exited before it was ready: %v\n%s", c.base, c.waitErr, c.logTail())
		default:
		}
		resp, err := hc.Get(c.base + "/readyz")
		if err == nil {
			drain(resp)
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %v (last error: %v)\n%s", c.base, timeout, err, c.logTail())
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// cpuSeconds reads the user+system CPU the process has burned so far.
func (c *child) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(c.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields are counted from
	// the closing parenthesis. utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed stat line %q", raw)
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short stat line %q", raw)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(utime+stime) / userHz, nil
}

// stop signals the child, waits for it to end and returns its peak
// resident set in KiB. A SIGTERM must lead to a clean exit.
func (c *child) stop(sig syscall.Signal) (maxRSSKB int64, err error) {
	if err := c.cmd.Process.Signal(sig); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return 0, err
	}
	<-c.exited
	werr := c.waitErr
	if ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		maxRSSKB = ru.Maxrss
	}
	if sig == syscall.SIGTERM && werr != nil {
		return maxRSSKB, fmt.Errorf("corund did not drain cleanly: %w\n%s", werr, c.logTail())
	}
	return maxRSSKB, nil
}

func (c *child) logTail() string {
	raw, err := os.ReadFile(c.logPath)
	if err != nil {
		return ""
	}
	if len(raw) > 2000 {
		raw = raw[len(raw)-2000:]
	}
	return "--- " + c.logPath + " ---\n" + string(raw)
}
