package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTime is CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// processCPU returns the CPU time all of the process's threads have
// consumed. Linux accounts it from the scheduler's task clock, which
// excludes time the hypervisor gave to other guests (steal).
func processCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// maxSamples bounds the per-operation samples a run keeps: far more
// than the fastest workload completes in the longest window.
const maxSamples = 1 << 22

// newSamples returns an empty slice whose backing array is mapped
// outside the Go heap, so the benchmark's own samples do not count in
// peak_heap_mb. Only the pages written become resident.
func newSamples() ([]float64, error) {
	mem, err := syscall.Mmap(-1, 0, maxSamples*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map sample buffer: %w", err)
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&mem[0])), maxSamples)[:0], nil
}
