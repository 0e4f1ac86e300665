//go:build linux

package proc

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"
)

// testEnv carries a testRole into a re-execution of this test binary.
const testEnv = "KNNJOIN_PROC_TEST"

// testRole is a re-executed test binary's role: a parent starts one
// child and sends its pid as the ready line; a child only waits.
type testRole struct{ Parent bool }

func TestMain(m *testing.M) {
	IfSpawned(testEnv, func(r testRole) error {
		if r.Parent {
			child, err := Start("child", testEnv, testRole{})
			if err != nil {
				return err
			}
			if err := SendReady(strconv.Itoa(child.cmd.Process.Pid)); err != nil {
				return err
			}
		}
		time.Sleep(time.Minute)
		return nil
	})
	os.Exit(m.Run())
}

// TestChildExitsWithParent SIGKILLs a parent, which gets no chance to
// clean up, and asserts that the child it started is gone within 2 s.
func TestChildExitsWithParent(t *testing.T) {
	parent, err := Start("parent", testEnv, testRole{Parent: true})
	if err != nil {
		t.Fatal(err)
	}
	defer Kill(parent)
	lines, err := Ready([]*Child{parent}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	pid, err := strconv.Atoi(lines[0])
	if err != nil {
		t.Fatalf("ready line %q: %v", lines[0], err)
	}
	defer func() {
		if p, err := os.FindProcess(pid); err == nil {
			p.Kill() // a no-op once the child is gone
		}
	}()
	Kill(parent)
	for deadline := time.Now().Add(2 * time.Second); alive(pid); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("child %d still runs 2 s after its parent was killed", pid)
		}
	}
}

// alive reports whether process pid runs. A zombie counts as gone: where
// PID 1 does not reap orphans, an exited orphan stays one, and
// kill(pid, 0) would still find it.
func alive(pid int) bool {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return false
	}
	// The state follows the command name, which is in parentheses and
	// may hold any byte.
	i := bytes.LastIndexByte(stat, ')')
	return i < 0 || i+2 >= len(stat) || stat[i+2] != 'Z'
}
