//go:build !race

package tensor

import "testing"

// Race instrumentation allocates, so these counts hold only without -race.

// TestKernelsDoNotAllocate pins the float inner kernels at zero heap
// allocations, AVX on and off: the AVX tile's lanes must stay on the
// stack (//go:noescape on the assembly declarations).
func TestKernelsDoNotAllocate(t *testing.T) {
	a := New(147).FillNormal(NewRNG(1), 0, 1).Data
	w := New(19, 147).FillNormal(NewRNG(2), 0, 1).Data
	dst := make([]float64, 19)
	var dots [8]float64
	kernels := []struct {
		name string
		fn   func()
	}{
		{"Dot", func() { dots[0] = Dot(a, w[:147]) }},
		{"MatVecT", func() { MatVecT(dst, a, w, 147) }},
		{"dot8Into", func() { dot8Into(dots[:], a, w, 147) }},
	}
	saved := useAVX
	defer func() { useAVX = saved }()
	for _, avx := range []bool{false, saved} {
		useAVX = avx
		for _, k := range kernels {
			if got := testing.AllocsPerRun(20, k.fn); got != 0 {
				t.Errorf("%s (avx=%v): %v allocs per call, want 0", k.name, avx, got)
			}
		}
	}
}

// TestConvGEMMAllocatesNoPerRowMemory runs a GEMM-path convolution on a
// warm arena. Its allocations are a per-call constant — the output
// header, the row-loop closure and the per-chunk patch buffer — the same
// for 2 and 8 images, never a count that grows with the patch rows.
// (AllocsPerRun measures at GOMAXPROCS 1, so the rows run as one chunk.)
func TestConvGEMMAllocatesNoPerRowMemory(t *testing.T) {
	w := New(64, 8, 3, 3).FillNormal(NewRNG(3), 0, 1)
	bias := New(64).FillNormal(NewRNG(4), 0, 1)
	saved := useAVX
	defer func() { useAVX = saved }()
	for _, avx := range []bool{false, saved} {
		useAVX = avx
		var allocs []float64
		for _, n := range []int{2, 8} {
			x := New(n, 8, 8, 8).FillNormal(NewRNG(5), 0, 1) // 8×8 planes take the GEMM path
			s := NewScratch()
			s.Release(Conv2DScratch(x, w, bias, 1, 1, s)) // warm the arena
			allocs = append(allocs, testing.AllocsPerRun(10, func() {
				s.Release(Conv2DScratch(x, w, bias, 1, 1, s))
			}))
		}
		if allocs[0] != allocs[1] || allocs[1] > 6 {
			t.Errorf("avx=%v: %v allocs per conv for 2 and 8 images, want one constant ≤ 6", avx, allocs)
		}
	}
}
