package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity bit mask covering 1024 CPUs.
type cpuMask [16]uint64

// pinToOneCPU binds every thread of this process to the highest-numbered CPU
// it may run on and returns that CPU. Threads created later inherit the
// binding, and so does the isingd child, which is forked from one of them:
// the load process and the daemon then share one CPU, and a job's request
// and response hops never wait for a second, idle (or descheduled) vCPU to
// wake up.
func pinToOneCPU() (int, error) {
	var allowed cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); e != 0 {
		return 0, fmt.Errorf("sched_getaffinity: %w", e)
	}
	cpu := -1
	for i := len(allowed)*64 - 1; i >= 0 && cpu < 0; i-- {
		if allowed[i/64]>>(i%64)&1 == 1 {
			cpu = i
		}
	}
	if cpu < 0 {
		return 0, fmt.Errorf("sched_getaffinity returned an empty CPU set")
	}
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	// A thread started while the loop runs may have been cloned from one
	// not yet pinned, so repeat until a pass finds no thread left to pin.
	pinned := map[int]bool{}
	for {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return 0, err
		}
		fresh := 0
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil || pinned[tid] {
				continue
			}
			_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one)))
			if e != 0 && e != syscall.ESRCH { // ESRCH: the thread has exited
				return 0, fmt.Errorf("sched_setaffinity(%d): %w", tid, e)
			}
			pinned[tid] = true
			fresh++
		}
		if fresh == 0 {
			return cpu, nil
		}
	}
}

// cpuTimes reads the aggregate "cpu" line of /proc/stat: user, nice,
// system, idle, iowait, irq, softirq, steal, ... in clock ticks (nil if it
// cannot be read).
func cpuTimes() []uint64 {
	blob, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(blob), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return nil
	}
	out := make([]uint64, len(fields)-1)
	for i, f := range fields[1:] {
		if out[i], err = strconv.ParseUint(f, 10, 64); err != nil {
			return nil
		}
	}
	return out
}

// stealPct is the share of all CPU time between two cpuTimes readings that
// the hypervisor gave to other guests, in percent (-1 if unknown). The
// benchmark's timings slow down as it grows, so the report carries it.
func stealPct(before, after []uint64) float64 {
	if len(before) < 8 || len(after) != len(before) {
		return -1
	}
	var total uint64
	for i := range after {
		total += after[i] - before[i]
	}
	if total == 0 {
		return -1
	}
	return 100 * float64(after[7]-before[7]) / float64(total)
}
