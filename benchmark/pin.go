package main

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// The sandbox this benchmark is judged in gives it a few virtual CPUs of a
// shared host. With the Go scheduler spread over two of them, the same Sort
// took 0.8 to 1.5 s: collector workers and page-table shoot-downs wait on a
// virtual CPU the hypervisor has descheduled, and the steal counter cannot say
// which thread lost the time. On one CPU the process waits for nobody but the
// hypervisor, that CPU's own steal counter says exactly for how long, and wall
// time minus it equals the process's CPU time to three digits. So the
// benchmark measures on one CPU: client, in-process servers and collector take
// turns, an op's time is the CPU work of all of them, and a gain from running
// them side by side does not show in a timing here.

// pinnedCPU is the one CPU the process may run on, or -1 when it may run on
// several (no affinity call on this system, or pinning failed).
var pinnedCPU = -1

type cpuMask [16]uint64 // 1024 CPUs, as the kernel's default cpu_set_t

func affinity() (cpuMask, bool) {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	return m, errno == 0
}

func (m *cpuMask) cpus() (n, last int) {
	last = -1
	for i, w := range m {
		n += bits.OnesCount64(w)
		if w != 0 {
			last = 64*i + bits.Len64(w) - 1
		}
	}
	return n, last
}

// pinToOneCPU confines the process to the last CPU it may use (the first one
// tends to take the interrupts) and starts it again, so that the Go runtime
// sizes itself for one CPU as it would on a one-CPU machine. The second time
// round it finds one CPU and returns.
func pinToOneCPU() {
	m, ok := affinity()
	n, last := m.cpus()
	if !ok || n == 0 {
		return
	}
	if n == 1 {
		pinnedCPU = last
		return
	}
	exe, err := os.Executable()
	if err != nil {
		return
	}
	// The affinity is the calling thread's, and exec keeps that thread alone.
	runtime.LockOSThread()
	var one cpuMask
	one[last/64] = 1 << (last % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); errno != 0 {
		runtime.UnlockOSThread()
		return
	}
	err = syscall.Exec(exe, os.Args, os.Environ())
	fmt.Fprintln(os.Stderr, "benchmark: cannot restart on one CPU:", err)
	os.Exit(2)
}
