package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// children tracks every process the harness starts so that each exit
// path — success, failure, SIGINT/SIGTERM — can kill and reap them all.
// A child leads its own process group: knnserve's shard processes and
// knnjoin's workers are its grandchildren, and one kill(-pgid) takes
// the whole tree.
type children struct {
	mu   sync.Mutex
	live map[*exec.Cmd]bool
	env  []string
	dir  string // where children's stderr files go
	seq  int
}

func newChildren(env []string, dir string) *children {
	return &children{live: map[*exec.Cmd]bool{}, env: env, dir: dir}
}

// stderrFile opens a fresh file for one child's stderr. A file, not a
// pipe: a grandchild that inherits a pipe keeps Wait from returning.
func (c *children) stderrFile(name string) (*os.File, error) {
	c.mu.Lock()
	c.seq++
	n := c.seq
	c.mu.Unlock()
	return os.Create(filepath.Join(c.dir, fmt.Sprintf("%03d-%s.stderr", n, name)))
}

func (c *children) start(cmd *exec.Cmd) error {
	cmd.Env = c.env
	cmd.SysProcAttr = &syscall.SysProcAttr{
		Setpgid: true,
		// If the harness is killed outright its handlers never run;
		// SIGTERM lets knnserve shut its shard processes down itself.
		Pdeathsig: syscall.SIGTERM,
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", cmd.Path, err)
	}
	c.live[cmd] = true
	return nil
}

// wait reaps cmd and sweeps its process group for stragglers.
func (c *children) wait(cmd *exec.Cmd) error {
	err := cmd.Wait()
	syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) // reason: ESRCH once the group is empty, which is the normal case
	c.mu.Lock()
	delete(c.live, cmd)
	c.mu.Unlock()
	return err
}

// stop ends a long-running child: SIGTERM so it can close what it
// spawned, SIGKILL to the group if it has not gone within the grace.
func (c *children) stop(cmd *exec.Cmd, grace time.Duration) {
	cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		c.wait(cmd)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(grace):
		syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
		<-done
	}
}

func (c *children) killAll() {
	c.mu.Lock()
	cmds := make([]*exec.Cmd, 0, len(c.live))
	for cmd := range c.live {
		cmds = append(cmds, cmd)
	}
	c.mu.Unlock()
	for _, cmd := range cmds {
		syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
		c.wait(cmd)
	}
}

// timed is what the kernel reports for one finished child: wall time
// from fork to reap, and its wait4 rusage, which on Linux covers the
// child and the descendants it waited for.
type timed struct {
	Wall   time.Duration
	CPU    time.Duration
	RSSMB  float64
	Stderr string
}

// run executes one program to completion, stdout to the named file ("" =
// discarded), and fails on a non-zero exit.
func (c *children) run(bin string, args []string, stdout string) (timed, error) {
	cmd := exec.Command(bin, args...)
	ef, err := c.stderrFile(filepath.Base(bin))
	if err != nil {
		return timed{}, err
	}
	defer ef.Close()
	cmd.Stderr = ef
	if stdout != "" {
		f, err := os.Create(stdout)
		if err != nil {
			return timed{}, err
		}
		defer f.Close()
		cmd.Stdout = f
	}
	t0 := time.Now()
	if err := c.start(cmd); err != nil {
		return timed{}, err
	}
	err = c.wait(cmd)
	t := timed{Wall: time.Since(t0)}
	if raw, rerr := os.ReadFile(ef.Name()); rerr == nil {
		t.Stderr = string(raw)
	}
	if err != nil {
		return t, fmt.Errorf("%s %s: %w\n%s", bin, strings.Join(args, " "), err, tail(t.Stderr, 2000))
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		t.RSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	t.CPU = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	return t, nil
}

func tail(s string, n int) string {
	if len(s) > n {
		return "…" + s[len(s)-n:]
	}
	return s
}
