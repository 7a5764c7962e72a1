package main

import (
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// pinToOneCPU binds every thread of the process to the highest-numbered
// CPU it may run on, and returns that CPU (-1 if nothing was changed).
// Threads the runtime creates later inherit the mask. The packet path
// is one run-to-completion goroutine; left unpinned on the two-CPU
// reference host, the garbage collector's worker runs on the other CPU
// and the rate swings ±25 % from second to second (see README,
// "Pinning"). Pinned, the collector's cost is still paid — on the same
// CPU, where it repeats.
func pinToOneCPU() int {
	var mask [16]uint64 // 1024 CPUs
	size := uintptr(len(mask) * 8)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, size, uintptr(unsafe.Pointer(&mask[0]))); e != 0 {
		return -1
	}
	cpu := -1
	for i := len(mask)*64 - 1; i >= 0; i-- {
		if mask[i/64]&(1<<(uint(i)%64)) != 0 {
			cpu = i
			break
		}
	}
	if cpu < 0 {
		return -1
	}
	var one [16]uint64
	one[cpu/64] = 1 << (uint(cpu) % 64)
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return -1
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), size, uintptr(unsafe.Pointer(&one[0]))); e != 0 {
			return -1
		}
	}
	return cpu
}
