package main

import (
	"fmt"
	"math/bits"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// The serving chain is serial: one caller with one request in flight, and
// behind -shards a router that replays the walk one scan RPC at a time. On
// a KVM guest every hand-off between two vCPUs is an IPI and an idle exit,
// and which hand-offs cross is decided once per process by where the
// scheduler happens to settle it: ten fresh servers on one index answered
// 2000–2600 requests a second unpinned and 3150–3340 with caller and server
// on one vCPU, where a hand-off is a context switch. So while a knnserve is
// up, the harness and the server's whole process tree are confined to one
// CPU. Join processes run unconfined: they use both.
//
// The mask is set before knnserve starts, and the Go runtime sizes
// GOMAXPROCS from it: the server and its shard processes run with
// GOMAXPROCS=1, so -workers 2 and -shards 2 never execute in parallel and
// every query_* number, and the knnserve half of setup_s, is a one-CPU
// number. startServer reads the mask back from the started server and
// result.json carries it as server_cpus.

// cpuSet is a sched_setaffinity mask, wide enough for 1024 CPUs.
type cpuSet [16]uint64

// last returns the set holding only s's highest CPU — the one least
// likely to take the guest's interrupts.
func (s cpuSet) last() cpuSet {
	var out cpuSet
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] != 0 {
			bit := 63
			for s[i]&(1<<bit) == 0 {
				bit--
			}
			out[i] = 1 << bit
			break
		}
	}
	return out
}

// count is the number of CPUs in s.
func (s cpuSet) count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// affinityOf returns the CPUs process pid may run on; 0 is this process.
func affinityOf(pid int) (cpuSet, error) {
	var s cpuSet
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(pid), unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s))); e != 0 {
		return s, fmt.Errorf("sched_getaffinity(%d): %w", pid, e)
	}
	return s, nil
}

// confine moves every thread of this process onto set. Threads and
// children created afterwards inherit it. Two passes: a thread born during
// the first inherits from a parent that may not have been moved yet.
func confine(set cpuSet) error {
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set)))
			if e != 0 && e != syscall.ESRCH { // ESRCH: the thread has exited since it was listed
				return fmt.Errorf("sched_setaffinity(%d): %w", tid, e)
			}
		}
	}
	return nil
}
