// Package proc runs the program's re-executed children, the MapReduce
// worker processes and the shard replicas. The parent starts a copy of
// the running binary with a JSON config in an environment variable
// (Start), waits for the children's ready lines (Ready), reports an
// exit with its status and last stderr line (Err), and kills and reaps
// (Kill). The child runs its role (IfSpawned) and exits when its stdin,
// a pipe only the parent holds, reaches EOF: a child never outlives its
// parent, however the parent dies.
package proc

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"
)

// FaultKillExitCode is the exit status of a child killed by a fault
// plan, so an exit report tells an injected kill from a crash.
const FaultKillExitCode = 3

// Child is one running or exited child process.
type Child struct {
	name   string
	cmd    *exec.Cmd
	tail   tail
	line   string        // the ready line, set before ready closes
	ready  chan struct{} // closed once the child has sent its ready line
	exited chan struct{} // closed once cmd.Wait has returned, after ready if at all
	err    error         // cmd.Wait's result, set before exited closes
}

// Start re-executes the running binary with cfg, as JSON, in the
// environment variable env; the child must call IfSpawned(env, ...)
// first thing in main (or TestMain). name identifies the child in
// errors. The child's first line on stdout is its ready line; the rest
// of its stdout, and its stderr, go to the parent's stderr.
func Start(name, env string, cfg any) (*Child, error) {
	raw, err := json.Marshal(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: config: %w", name, err)
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("%s: locate own binary: %w", name, err)
	}
	c := &Child{name: name, cmd: exec.Command(exe), ready: make(chan struct{}), exited: make(chan struct{})}
	c.cmd.Env = append(os.Environ(), env+"="+string(raw))
	c.cmd.Stderr = io.MultiWriter(os.Stderr, &c.tail)
	// The parent never writes to stdin; the cmd holds the pipe's write
	// end until Wait, and the child exits when it closes.
	if _, err := c.cmd.StdinPipe(); err != nil {
		return nil, fmt.Errorf("%s: stdin: %w", name, err)
	}
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("%s: stdout: %w", name, err)
	}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawn %s: %w", name, err)
	}
	go func() {
		r := bufio.NewReader(stdout)
		if line, err := r.ReadString('\n'); err == nil {
			c.line = strings.TrimSuffix(line, "\n")
			close(c.ready)
		}
		io.Copy(os.Stderr, r)
		c.err = c.cmd.Wait() // after the last read, as StdoutPipe requires
		close(c.exited)
	}()
	return c, nil
}

// Exited is closed once the child has exited and been reaped.
func (c *Child) Exited() <-chan struct{} { return c.exited }

// Err returns nil while the child runs. Once it has exited, Err names
// the child, its exit status and the last line it wrote to stderr.
func (c *Child) Err() error {
	select {
	case <-c.exited:
		return c.exitErr("exited")
	default:
		return nil
	}
}

func (c *Child) exitErr(what string) error {
	msg := strings.TrimSpace(string(c.tail.b))
	if msg == "" {
		return fmt.Errorf("%s %s (%v)", c.name, what, c.err)
	}
	return fmt.Errorf("%s %s (%v): %s", c.name, what, c.err, msg[strings.LastIndexByte(msg, '\n')+1:])
}

// Ready waits for the ready line of every child and returns the lines
// in order. A child that exits first fails the wait at once with its
// exit report, whichever child it is; so does the timeout.
func Ready(cs []*Child, timeout time.Duration) ([]string, error) {
	errc := make(chan error, len(cs))
	for _, c := range cs {
		go func() {
			select {
			case <-c.ready:
			case <-c.exited:
			}
			select {
			case <-c.ready:
				errc <- nil
			default:
				errc <- c.exitErr("exited before serving")
			}
		}()
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for range cs {
		select {
		case err := <-errc:
			if err != nil {
				return nil, err
			}
		case <-deadline.C:
			for _, c := range cs {
				select {
				case <-c.ready:
				default:
					return nil, fmt.Errorf("%s: not ready after %v", c.name, timeout)
				}
			}
		}
	}
	lines := make([]string, len(cs))
	for i, c := range cs {
		lines[i] = c.line
	}
	return lines, nil
}

// Kill kills every child, then waits until each has been reaped.
func Kill(cs ...*Child) {
	for _, c := range cs {
		c.cmd.Process.Kill() // fails only for a child already reaped
	}
	for _, c := range cs {
		<-c.exited
	}
}

// tail keeps the last 4 KiB written to it.
type tail struct{ b []byte }

func (t *tail) Write(p []byte) (int, error) {
	const keep = 4 << 10
	t.b = append(t.b, p...)
	if len(t.b) > keep {
		t.b = t.b[len(t.b)-keep:]
	}
	return len(p), nil
}

// IfSpawned checks whether this process was started by Start with env
// and, if so, decodes the config into a C, runs role, and exits: with
// status 0 when role returns nil, 1 when it fails (printing the error to
// stderr) or when stdin reaches EOF because the parent is gone. It
// never returns in that case; in any other process it is a no-op.
func IfSpawned[C any](env string, role func(C) error) {
	raw := os.Getenv(env)
	if raw == "" {
		return
	}
	os.Unsetenv(env) // the child's own children do not inherit the role
	go func() {
		io.Copy(io.Discard, os.Stdin)
		os.Exit(1)
	}()
	var cfg C
	if err := json.Unmarshal([]byte(raw), &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "%s: bad config: %v\n", env, err)
		os.Exit(1)
	}
	if err := role(cfg); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// SendReady writes the ready line the parent's Ready waits for; line
// must not hold a newline.
func SendReady(line string) error {
	_, err := fmt.Println(line)
	return err
}
