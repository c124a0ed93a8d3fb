package main

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask wide enough for 1024 CPUs.
type cpuMask [1024 / (8 * unsafe.Sizeof(uintptr(0)))]uintptr

func setAffinity(tid int, m *cpuMask) syscall.Errno {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	return e
}

// setAffinityAll applies the mask to every thread of the process. It
// makes two passes, because a thread started by a thread the first pass
// had not reached yet inherits the old mask.
func setAffinityAll(m *cpuMask) error {
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
			// ESRCH: the thread exited since the directory was read.
			if e := setAffinity(tid, m); e != 0 && e != syscall.ESRCH {
				return fmt.Errorf("sched_setaffinity(%d): %w", tid, e)
			}
		}
	}
	return nil
}

// pinToOneCPU confines every thread of the process to the first CPU it
// is allowed on and returns the function that lifts the restriction.
func pinToOneCPU() (restore func(), err error) {
	var all, one cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(all), uintptr(unsafe.Pointer(&all))); e != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", e)
	}
	for i, word := range all {
		if word != 0 {
			one[i] = word & -word // lowest set bit
			break
		}
	}
	if err := setAffinityAll(&one); err != nil {
		setAffinityAll(&all) // best effort: some threads may already be pinned
		return nil, err
	}
	return func() { setAffinityAll(&all) }, nil
}
