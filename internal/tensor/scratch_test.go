package tensor

import "testing"

func TestScratchReusesBuffers(t *testing.T) {
	s := NewScratch()
	a := s.Take(4, 8)
	buf := a.Data
	for i := range buf {
		buf[i] = 3
	}
	s.Release(a)
	b := s.Take(8, 4) // same length, different shape → same backing buffer
	if &b.Data[0] != &buf[0] {
		t.Fatal("Take after Release did not recycle the buffer")
	}
	c := s.Take(8, 4) // pool empty again → fresh buffer
	if &c.Data[0] == &buf[0] {
		t.Fatal("second Take handed out a buffer still in use")
	}
	z := s.TakeZero(4, 8)
	for i, v := range z.Data {
		if v != 0 {
			t.Fatalf("TakeZero[%d] = %g, want 0", i, v)
		}
	}
}

func TestScratchStats(t *testing.T) {
	s := NewScratch()
	a := s.Take(4, 8) // fresh: 32 elements = 256 bytes
	s.Release(a)
	s.Take(8, 4) // recycled
	s.Take(2)    // fresh: 2 elements = 16 bytes
	got := s.Stats()
	want := ScratchStats{Takes: 3, Reuses: 1, Allocs: 2, AllocBytes: 256 + 16, Releases: 1}
	if got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
	if sum := got.Plus(got); sum.Takes != 6 || sum.AllocBytes != 2*(256+16) {
		t.Fatalf("Plus = %+v", sum)
	}
	var nilS *Scratch
	if nilS.Stats() != (ScratchStats{}) {
		t.Fatal("nil Scratch stats must be zero")
	}
}

func TestScratchNilIsValid(t *testing.T) {
	var s *Scratch
	a := s.Take(2, 3)
	if a.Len() != 6 {
		t.Fatalf("nil Take len = %d", a.Len())
	}
	s.Release(a) // no-op
	if z := s.TakeZero(3); z.Len() != 3 {
		t.Fatal("nil TakeZero")
	}
}

func TestConv2DScratchMatchesConv2D(t *testing.T) {
	x := New(2, 3, 7, 7).FillNormal(NewRNG(1), 0, 1)
	w := New(4, 3, 3, 3).FillNormal(NewRNG(2), 0, 1)
	b := New(4).FillUniform(NewRNG(3), -1, 1)
	want := Conv2D(x, w, b, 2, 1)
	s := NewScratch()
	for rep := 0; rep < 3; rep++ { // repeated calls exercise buffer reuse
		got := Conv2DScratch(x, w, b, 2, 1, s)
		if !got.SameShape(want) {
			t.Fatalf("shape %v vs %v", got.Shape, want.Shape)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("rep %d: element %d = %g, want %g", rep, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestMatMulTScratchMatches(t *testing.T) {
	a := New(65, 9).FillNormal(NewRNG(4), 0, 1) // >64 rows → parallel path
	b := New(5, 9).FillNormal(NewRNG(5), 0, 1)
	want := MatMulT(a, b)
	s := NewScratch()
	prev := s.Take(65, 5).Fill(123)
	s.Release(prev) // poison the pool with a dirty same-size buffer
	got := MatMulTScratch(a, b, s)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("element %d = %g, want %g", i, got.Data[i], want.Data[i])
		}
	}
}

// TestScratchTakesBackOnlyWhatItLent pins the lending rule: foreign
// buffers, views that start elsewhere and second releases are dropped
// and counted, never filed on the free list.
func TestScratchTakesBackOnlyWhatItLent(t *testing.T) {
	s, other := NewScratch(), NewScratch()
	a := s.Take(4, 8)
	s.Release(
		New(32),                   // never lent
		other.Take(32),            // lent by another arena
		NewFrom(a.Data[8:], 3, 8), // a view that does not start at a's base
		NewFrom(a.Data[:16], 16),  // right base, wrong length
	)
	s.Release(a, a) // the second release is no longer on loan
	codes := s.TakeU16(6)
	s.ReleaseU16(codes, codes, make([]uint16, 6))
	got := s.Stats()
	want := ScratchStats{Takes: 2, Allocs: 2, AllocBytes: 256 + 12, Releases: 2, Dropped: 7, FreeBytes: 256 + 12}
	if got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
	if b := s.Take(32); &b.Data[0] != &a.Data[0] {
		t.Fatal("the lent buffer was not recycled")
	}
	if c := s.Take(32); &c.Data[0] == &a.Data[0] {
		t.Fatal("a double release put one buffer on the free list twice")
	}
	if st := s.Stats(); st.FreeBytes != 12 {
		t.Fatalf("free bytes after re-taking = %d, want 12", st.FreeBytes)
	}
}
