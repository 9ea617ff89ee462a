package main

import (
	"sync"
	"syscall"
	"unsafe"
)

// arena holds the benchmark's own bulk data — rendered inputs, the
// estimate sink, the span log — in anonymous memory mappings outside
// the Go heap. Hundreds of megabytes of inputs on the heap would set
// the collector's target so high that the serving path never collects
// during a replay, unlike a receiver in service whose live heap is a
// few megabytes; outside the heap they neither count toward the target
// nor get scanned. Only pointer-free element types may live here.
type arena struct {
	mu   sync.Mutex
	maps [][]byte
}

// alloc returns n zeroed elements of T from a fresh mapping. T must
// contain no pointers: the collector does not see this memory.
func alloc[T any](a *arena, n int) []T {
	if n == 0 {
		return nil
	}
	var zero T
	b, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(zero)),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("fleetbench: mapping benchmark storage: " + err.Error())
	}
	a.mu.Lock()
	a.maps = append(a.maps, b)
	a.mu.Unlock()
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
}

// move copies src into the arena; src becomes garbage.
func move[T any](a *arena, src []T) []T {
	dst := alloc[T](a, len(src))
	copy(dst, src)
	return dst
}

// free unmaps everything; nothing allocated from the arena may be
// touched afterwards.
func (a *arena) free() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, b := range a.maps {
		syscall.Munmap(b)
	}
	a.maps = nil
}
