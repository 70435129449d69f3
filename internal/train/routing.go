package train

import (
	"redcane/internal/caps"
	"redcane/internal/tensor"
)

// routeBackward propagates gv [n, outCaps, outDim, pos] through dynamic
// routing's output squash and coefficient-weighted vote sum, treating the
// final coupling coefficients k [n, inCaps, outCaps, pos] as constants
// (straight-through), and returns the gradient with respect to the votes
// [n, inCaps, outCaps, outDim, pos]. The pre-squash sum crosses no
// injection site, so it is rebuilt from the votes and k in
// caps.dynamicRouting's loop order, which reproduces its bits.
func routeBackward(votes, k, gv *tensor.Tensor) *tensor.Tensor {
	n, inCaps, outCaps := votes.Shape[0], votes.Shape[1], votes.Shape[2]
	outDim, pos := votes.Shape[3], votes.Shape[4]
	// rows visits each (vote row, coefficient row, output row) offset.
	rows := func(f func(vi, ki, si int)) {
		for b := 0; b < n; b++ {
			for i := 0; i < inCaps; i++ {
				for j := 0; j < outCaps; j++ {
					ki := ((b*inCaps+i)*outCaps + j) * pos
					for d := 0; d < outDim; d++ {
						f((((b*inCaps+i)*outCaps+j)*outDim+d)*pos, ki, ((b*outCaps+j)*outDim+d)*pos)
					}
				}
			}
		}
	}
	s := tensor.New(n, outCaps, outDim, pos)
	rows(func(vi, ki, si int) {
		for p := 0; p < pos; p++ {
			s.Data[si+p] += k.Data[ki+p] * votes.Data[vi+p]
		}
	})
	gs := tensor.SquashBackward(s, gv, 2)
	gvotes := tensor.New(votes.Shape...)
	rows(func(vi, ki, si int) {
		for p := 0; p < pos; p++ {
			gvotes.Data[vi+p] = k.Data[ki+p] * gs.Data[si+p]
		}
	})
	return gvotes
}

// ConvCaps3D trains a caps.ConvCaps3D, the 3D convolutional capsule
// layer with dynamic routing (straight-through coefficients in backward).
type ConvCaps3D struct {
	L *caps.ConvCaps3D
	W *Param // [inCaps, outCaps*outDim, inDim, k, k]
	tape
	s *tensor.Scratch // recycles backward temporaries across steps
}

// Name implements Layer.
func (l *ConvCaps3D) Name() string { return l.L.LayerName }

// Forward implements Layer.
func (l *ConvCaps3D) Forward(x *tensor.Tensor) *tensor.Tensor { return l.record(l.L, x) }

// Backward implements Layer. Each input capsule's votes are its own
// convolution of that capsule's slice of the input.
func (l *ConvCaps3D) Backward(gy *tensor.Tensor) *tensor.Tensor {
	c := l.L
	n, h, w := l.x.Shape[0], l.x.Shape[2], l.x.Shape[3]
	oh, ow := gy.Shape[2], gy.Shape[3]
	gvotes := routeBackward(l.mac, l.k, gy.Reshape(n, c.OutCaps, c.OutDim, oh*ow))

	k := c.W.Shape[3]
	outCh := c.OutCaps * c.OutDim
	inSz, outSz, wsz := c.InDim*h*w, outCh*oh*ow, outCh*c.InDim*k*k
	gx := tensor.New(l.x.Shape...)
	for i := 0; i < c.InCaps; i++ {
		// Gather capsule i's input slice and vote gradients; the copies
		// overwrite every element of the recycled buffers.
		sub := l.s.Take(n, c.InDim, h, w)
		gout := l.s.Take(n, outCh, oh, ow)
		for b := 0; b < n; b++ {
			src := (b*c.InCaps + i) * inSz
			copy(sub.Data[b*inSz:(b+1)*inSz], l.x.Data[src:src+inSz])
			src = (b*c.InCaps + i) * outSz
			copy(gout.Data[b*outSz:(b+1)*outSz], gvotes.Data[src:src+outSz])
		}
		wi := tensor.NewFrom(c.W.Data[i*wsz:(i+1)*wsz], outCh, c.InDim, k, k)
		gsub, gw, _ := tensor.Conv2DBackwardScratch(sub, wi, gout, c.Stride, c.Pad, l.s)
		giw := l.W.G.Data[i*wsz : (i+1)*wsz]
		for j, v := range gw.Data {
			giw[j] += v
		}
		for b := 0; b < n; b++ {
			dst := (b*c.InCaps + i) * inSz
			copy(gx.Data[dst:dst+inSz], gsub.Data[b*inSz:(b+1)*inSz])
		}
		l.s.Release(sub, gout, gsub, gw) // all copied/accumulated above
	}
	return gx
}

// Params implements Layer.
func (l *ConvCaps3D) Params() []*Param { return []*Param{l.W} }

// ClassCaps trains a caps.ClassCaps, the fully-connected capsule layer
// with dynamic routing.
type ClassCaps struct {
	L *caps.ClassCaps
	W *Param // [inCaps, outCaps, outDim, inDim]
	tape
}

// Name implements Layer.
func (l *ClassCaps) Name() string { return l.L.LayerName }

// Forward implements Layer.
func (l *ClassCaps) Forward(x *tensor.Tensor) *tensor.Tensor { return l.record(l.L, x) }

// Backward implements Layer.
func (l *ClassCaps) Backward(gy *tensor.Tensor) *tensor.Tensor {
	c := l.L
	n := l.x.Shape[0]
	gvotes := routeBackward(l.mac, l.k, gy.Reshape(n, c.OutCaps, c.OutDim, 1))
	u := FlattenToCaps(l.x, c.InCaps, c.InDim)

	gu := tensor.New(n, c.InCaps, c.InDim)
	for b := 0; b < n; b++ {
		for i := 0; i < c.InCaps; i++ {
			ui := u.Data[(b*c.InCaps+i)*c.InDim : (b*c.InCaps+i+1)*c.InDim]
			gui := gu.Data[(b*c.InCaps+i)*c.InDim : (b*c.InCaps+i+1)*c.InDim]
			for j := 0; j < c.OutCaps; j++ {
				base := ((b*c.InCaps+i)*c.OutCaps + j) * c.OutDim
				for d := 0; d < c.OutDim; d++ {
					g := gvotes.Data[base+d]
					if g == 0 {
						continue
					}
					wRow := c.W.Data[((i*c.OutCaps+j)*c.OutDim+d)*c.InDim:]
					gwRow := l.W.G.Data[((i*c.OutCaps+j)*c.OutDim+d)*c.InDim:]
					for e := 0; e < c.InDim; e++ {
						gwRow[e] += g * ui[e]
						gui[e] += g * wRow[e]
					}
				}
			}
		}
	}
	return unflattenCaps(gu, l.x.Shape, c.InDim)
}

// Params implements Layer.
func (l *ClassCaps) Params() []*Param { return []*Param{l.W} }

// FlattenToCaps reinterprets an NCHW tensor as [n, inCaps, inDim] with the
// inference network's capsule layout (caps.FlattenCaps). Rank-3 inputs
// pass through.
func FlattenToCaps(x *tensor.Tensor, inCaps, inDim int) *tensor.Tensor {
	return caps.FlattenCaps(x, inCaps, inDim)
}

// unflattenCaps is the inverse scatter of FlattenToCaps for gradients.
func unflattenCaps(g *tensor.Tensor, xShape []int, inDim int) *tensor.Tensor {
	if len(xShape) == 3 {
		return g
	}
	n, ch, h, w := xShape[0], xShape[1], xShape[2], xShape[3]
	ctypes := ch / inDim
	out := tensor.New(n, ch, h, w)
	idx := 0
	for b := 0; b < n; b++ {
		for c := 0; c < ctypes; c++ {
			for p := 0; p < h*w; p++ {
				for d := 0; d < inDim; d++ {
					out.Data[((b*ctypes*inDim)+(c*inDim+d))*h*w+p] = g.Data[idx]
					idx++
				}
			}
		}
	}
	return out
}
