package tensor

import (
	"sync/atomic"
	"unsafe"
)

// Scratch is a grow-only arena of reusable float64 and uint16 buffers
// for the convolution, capsule and quantized kernels. Repeated forward
// passes (the ReD-CaNe noise sweeps re-run inference thousands of times)
// spend a measurable fraction of their time allocating and
// garbage-collecting layer temporaries; a Scratch lets them be recycled
// across calls.
//
// Buffers are pooled by exact length, so steady-state workloads (fixed
// batch and layer shapes) stop allocating entirely after the first pass.
// A nil *Scratch is valid everywhere and falls back to fresh allocation,
// so call sites can thread an optional arena without branching.
//
// Lending rule: an arena takes back only buffers it lent. Take, TakeZero
// and TakeU16 record each buffer they hand out by its base address;
// Release and ReleaseU16 return a buffer to the free list only if it is
// still on loan from this arena (same base address, same length), and
// drop anything else — buffers from New, from another arena, views that
// start elsewhere and second releases — counting it in
// ScratchStats.Dropped. So the free lists hold at most what one pass
// took, however many foreign tensors the layers release. The loan record
// holds addresses, not pointers: a lent buffer that escapes instead of
// being released stays collectable.
//
// A Scratch is NOT safe for concurrent use; give each worker goroutine
// its own.
type Scratch struct {
	id      int64
	free    map[int][][]float64
	freeU16 map[int][][]uint16
	lent    map[uintptr]int // base address → length of buffers on loan
	stats   ScratchStats
}

// scratchSeq hands out process-unique arena IDs.
var scratchSeq atomic.Int64

// ScratchStats tallies an arena's traffic: how many buffer requests were
// served from the free list versus freshly allocated, how many bytes the
// arena grew by, and what became of released buffers. The sweep engine
// merges worker arenas' stats into the telemetry gauges; the split
// between Reuses and Allocs depends on job scheduling, so these are
// reported as gauges, never counters.
type ScratchStats struct {
	Takes      int64 // buffers requested
	Reuses     int64 // requests served from the free list
	Allocs     int64 // requests that allocated fresh memory
	AllocBytes int64 // bytes of fresh allocation (arena growth)
	Releases   int64 // lent buffers returned to the free list
	Dropped    int64 // releases of buffers the arena did not lend
	FreeBytes  int64 // bytes currently held on the free lists
}

// Plus returns the element-wise sum of two stats.
func (a ScratchStats) Plus(b ScratchStats) ScratchStats {
	return ScratchStats{
		Takes:      a.Takes + b.Takes,
		Reuses:     a.Reuses + b.Reuses,
		Allocs:     a.Allocs + b.Allocs,
		AllocBytes: a.AllocBytes + b.AllocBytes,
		Releases:   a.Releases + b.Releases,
		Dropped:    a.Dropped + b.Dropped,
		FreeBytes:  a.FreeBytes + b.FreeBytes,
	}
}

// NewScratch returns an empty arena.
func NewScratch() *Scratch {
	return &Scratch{
		id:      scratchSeq.Add(1),
		free:    make(map[int][][]float64),
		freeU16: make(map[int][][]uint16),
		lent:    make(map[uintptr]int),
	}
}

// ID returns the arena's process-unique identifier (0 for a nil
// Scratch). Arenas are per-worker, so the ID doubles as a stable lane
// key for trace timelines.
func (s *Scratch) ID() int64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Stats returns the arena's traffic tallies (zero for a nil Scratch).
func (s *Scratch) Stats() ScratchStats {
	if s == nil {
		return ScratchStats{}
	}
	return s.stats
}

// base returns buf's base address, the key of the loan record.
func base[T float64 | uint16](buf []T) uintptr { return uintptr(unsafe.Pointer(&buf[0])) }

// byteLen returns buf's size in bytes.
func byteLen[T float64 | uint16](buf []T) int64 {
	var zero T
	return int64(len(buf)) * int64(unsafe.Sizeof(zero))
}

// take lends a length-n buffer from free, recycled when possible. The
// contents are undefined.
func take[T float64 | uint16](s *Scratch, free map[int][][]T, n int) []T {
	s.stats.Takes++
	var buf []T
	if bufs := free[n]; len(bufs) > 0 {
		buf = bufs[len(bufs)-1]
		free[n] = bufs[:len(bufs)-1]
		s.stats.Reuses++
		s.stats.FreeBytes -= byteLen(buf)
	} else {
		buf = make([]T, n)
		s.stats.Allocs++
		s.stats.AllocBytes += byteLen(buf)
	}
	if n > 0 {
		s.lent[base(buf)] = n
	}
	return buf
}

// give returns buf to free if s lent it and it is still on loan, and
// drops it otherwise (see the lending rule on Scratch).
func give[T float64 | uint16](s *Scratch, free map[int][][]T, buf []T) {
	if len(buf) == 0 {
		return
	}
	k := base(buf)
	if n, ok := s.lent[k]; !ok || n != len(buf) {
		s.stats.Dropped++
		return
	}
	delete(s.lent, k)
	free[len(buf)] = append(free[len(buf)], buf)
	s.stats.Releases++
	s.stats.FreeBytes += byteLen(buf)
}

// Take returns a tensor of the given shape backed by a lent buffer.
// The contents are UNDEFINED — use TakeZero when the caller accumulates
// into the tensor rather than overwriting every element.
func (s *Scratch) Take(shape ...int) *Tensor {
	if s == nil {
		return New(shape...)
	}
	n := checkShape(shape)
	return &Tensor{Shape: append([]int(nil), shape...), Data: take(s, s.free, n)}
}

// TakeZero is Take with the buffer cleared to zero.
func (s *Scratch) TakeZero(shape ...int) *Tensor {
	t := s.Take(shape...)
	clear(t.Data)
	return t
}

// Release hands tensors' buffers back to the arena. A buffer this arena
// lent is recycled; any other is dropped (see the lending rule on
// Scratch). Either way the tensors (and any views sharing their buffers)
// must not be used afterwards. Releasing to a nil Scratch is a no-op.
func (s *Scratch) Release(ts ...*Tensor) {
	if s == nil {
		return
	}
	for _, t := range ts {
		if t != nil {
			give(s, s.free, t.Data)
		}
	}
}

// TakeU16 lends a uint16 buffer of length n, recycled when possible.
// The contents are undefined. Quantized execution backends use these for
// operand codes, which would otherwise be fresh garbage on every layer of
// every batch. A nil Scratch allocates fresh.
func (s *Scratch) TakeU16(n int) []uint16 {
	if s == nil {
		return make([]uint16, n)
	}
	return take(s, s.freeU16, n)
}

// ReleaseU16 hands uint16 buffers back to the arena under the same
// lending rule as Release. The buffers must not be used afterwards.
// Releasing to a nil Scratch is a no-op.
func (s *Scratch) ReleaseU16(bufs ...[]uint16) {
	if s == nil {
		return
	}
	for _, b := range bufs {
		give(s, s.freeU16, b)
	}
}
