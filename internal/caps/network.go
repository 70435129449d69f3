package caps

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"redcane/internal/energy"
	"redcane/internal/noise"
	"redcane/internal/obs"
	"redcane/internal/tensor"
)

// CapsCell is DeepCaps' residual capsule cell: three sequential ConvCaps2D
// layers plus one skip ConvCaps layer from the first layer's output, with
// the two branches summed (Fig. 2 of the paper; the final cell uses the
// ConvCaps3D routing layer as its skip branch). Each inner ConvCaps layer
// applies its own squash, as in the reference DeepCaps implementation, so
// the cell itself adds no extra injection site.
type CapsCell struct {
	CellName   string
	L1, L2, L3 *ConvCaps2D
	// Skip is either a *ConvCaps2D or the *ConvCaps3D routing layer.
	Skip Layer
}

// Name implements Layer.
func (c *CapsCell) Name() string { return c.CellName }

// Forward implements Layer.
func (c *CapsCell) Forward(x *tensor.Tensor, inj noise.Injector) *tensor.Tensor {
	return c.ForwardExec(x, inj, nil, Float{})
}

// ForwardExec runs the cell under an execution backend, threading the
// scratch arena through all four branch layers. The branch activations
// are squash outputs, never lent by the arena, so nothing is released.
func (c *CapsCell) ForwardExec(x *tensor.Tensor, inj noise.Injector, s *tensor.Scratch, be Backend) *tensor.Tensor {
	a := forwardLayer(c.L1, x, inj, s, be)
	b := forwardLayer(c.L2, a, inj, s, be)
	main := forwardLayer(c.L3, b, inj, s, be)
	skip := forwardLayer(c.Skip, a, inj, s, be)
	if !main.SameShape(skip) {
		panic(fmt.Sprintf("caps: cell %s branch shapes %v vs %v", c.CellName, main.Shape, skip.Shape))
	}
	return tensor.Add(main, skip)
}

// Sites implements Layer.
func (c *CapsCell) Sites() []noise.Site {
	var s []noise.Site
	s = append(s, c.L1.Sites()...)
	s = append(s, c.L2.Sites()...)
	s = append(s, c.L3.Sites()...)
	s = append(s, c.Skip.Sites()...)
	return s
}

// Params implements Layer.
func (c *CapsCell) Params() map[string]*tensor.Tensor {
	out := map[string]*tensor.Tensor{}
	for _, l := range []Layer{c.L1, c.L2, c.L3, c.Skip} {
		for k, v := range l.Params() {
			out[k] = v
		}
	}
	return out
}

// Ops implements Layer.
func (c *CapsCell) Ops(inShape []int) (energy.Counts, []int) {
	c1, aShape := c.L1.Ops(inShape)
	c2, bShape := c.L2.Ops(aShape)
	c3, outShape := c.L3.Ops(bShape)
	c4, skipShape := c.Skip.Ops(aShape)
	_ = skipShape
	total := c1.Plus(c2).Plus(c3).Plus(c4)
	// Residual add: one addition per output element.
	n := 1
	for _, d := range outShape {
		n *= d
	}
	total = total.Plus(energy.Counts{Add: float64(n)})
	return total, outShape
}

// Network is an ordered stack of layers ending in a capsule layer whose
// output vector norms are the class scores.
type Network struct {
	NetName string
	// InputShape is [channels, height, width] of a single sample.
	InputShape []int
	Layers     []Layer
	// Obs, when non-nil, receives per-layer forward wall time and
	// invocation counts under "caps.forward.<kind>.<layer>" timers, where
	// kind is "full" (whole-network pass), "prefix" (clean-prefix half of
	// a split pass) or "suffix" (replay from a cached prefix). Set it
	// before concurrent use; timing never alters numerical results, and a
	// nil Obs costs one branch per forward pass.
	Obs *obs.Obs
}

// Name returns the network's name.
func (n *Network) Name() string { return n.NetName }

// execForwarder is implemented by layers whose forward pass can recycle
// temporaries through a scratch arena and run on a pluggable execution
// backend. Layers without it fall back to plain Forward (float only).
type execForwarder interface {
	ForwardExec(x *tensor.Tensor, inj noise.Injector, s *tensor.Scratch, be Backend) *tensor.Tensor
}

// scratchPool recycles per-forward scratch arenas across calls. Each
// Forward borrows one arena for its whole pass, so concurrent forwards
// never share buffers.
var scratchPool = sync.Pool{New: func() any { return tensor.NewScratch() }}

// forwardLayer runs one layer, threading the scratch arena and execution
// backend when the layer supports them.
func forwardLayer(l Layer, x *tensor.Tensor, inj noise.Injector, s *tensor.Scratch, be Backend) *tensor.Tensor {
	if ef, ok := l.(execForwarder); ok {
		return ef.ForwardExec(x, inj, s, be)
	}
	return l.Forward(x, inj)
}

// forwardRange runs layers [lo, hi) on x under inj with scratch s and
// backend be. kind labels the pass for telemetry ("full", "prefix" or
// "suffix"); with a nil Obs the timed path is skipped entirely.
func (n *Network) forwardRange(lo, hi int, x *tensor.Tensor, inj noise.Injector, s *tensor.Scratch, be Backend, kind string) *tensor.Tensor {
	if inj == nil {
		inj = noise.None{}
	}
	if be == nil {
		be = Float{}
	}
	o := n.Obs
	if o == nil {
		for _, l := range n.Layers[lo:hi] {
			x = forwardLayer(l, x, inj, s, be)
		}
		return x
	}
	tr := o.Trace()
	for _, l := range n.Layers[lo:hi] {
		t0 := time.Now()
		x = forwardLayer(l, x, inj, s, be)
		d := time.Since(t0)
		name := "caps.forward." + kind + "." + l.Name()
		o.Timer(name).Observe(d)
		if tr != nil {
			// One lane per scratch arena, i.e. per worker goroutine.
			tr.Complete(name, "forward", s.ID(), t0, d, nil)
		}
	}
	return x
}

// forwardKind labels a suffix pass: replaying from boundary 0 is just a
// full forward.
func forwardKind(k int) string {
	if k == 0 {
		return "full"
	}
	return "suffix"
}

// Forward runs all layers under the given injector. Pass noise.None{} for
// accurate inference.
func (n *Network) Forward(x *tensor.Tensor, inj noise.Injector) *tensor.Tensor {
	return n.ForwardExec(x, inj, Float{})
}

// ForwardExec is Forward under an execution backend: the noise-model path
// (Float plus an active injector) and the bit-accurate path (a quantized
// backend) share every layer, site, and telemetry hook.
func (n *Network) ForwardExec(x *tensor.Tensor, inj noise.Injector, be Backend) *tensor.Tensor {
	s := scratchPool.Get().(*tensor.Scratch)
	defer scratchPool.Put(s)
	return n.forwardRange(0, len(n.Layers), x, inj, s, be, "full")
}

// ForwardToExec runs only the prefix layers [0, k) under an execution
// backend — the clean-prefix half of a split forward pass.
// ForwardToExec(k, x, noise.None{}, be) followed by ForwardFromExec(k, ·,
// inj, s, be) is bit-identical to ForwardExec(x, inj, be) whenever inj is
// inactive on every site before layer k (see Network.InjectionFrontier).
// For backends whose frontier (see BackendFrontier) is at or beyond k,
// the prefix is bit-identical to the backend's BaseID baseline and may be
// cached across designs sharing that baseline.
func (n *Network) ForwardToExec(k int, x *tensor.Tensor, inj noise.Injector, be Backend) *tensor.Tensor {
	s := scratchPool.Get().(*tensor.Scratch)
	defer scratchPool.Put(s)
	return n.forwardRange(0, k, x, inj, s, be, "prefix")
}

// ForwardFromExec runs the suffix layers [k, len(Layers)) on x under an
// execution backend, with a caller-owned scratch arena; x must be the
// activation produced at boundary k (e.g. by ForwardToExec). The sweep
// engine replays cached clean prefixes through this entry point. x is
// never mutated, so one cached activation can be replayed many times.
func (n *Network) ForwardFromExec(k int, x *tensor.Tensor, inj noise.Injector, s *tensor.Scratch, be Backend) *tensor.Tensor {
	return n.forwardRange(k, len(n.Layers), x, inj, s, be, forwardKind(k))
}

// InjectionFrontier returns the index of the first layer owning an
// injection site accepted by the filter, or len(n.Layers) when no layer
// matches. Every layer before the frontier produces bit-identical clean
// activations under an injector restricted to that filter — the
// invariant the sweep engine's clean-prefix cache relies on.
func (n *Network) InjectionFrontier(accept noise.Filter) int {
	for li, l := range n.Layers {
		for _, site := range l.Sites() {
			if accept(site) {
				return li
			}
		}
	}
	return len(n.Layers)
}

// BackendFrontier returns the index of the first layer whose output the
// backend computes approximately — through approximate MAC kernels
// (Backend.ApproxLayer) or a carried non-exact nonlinearity
// (NonlinearityCarrier) — or len(n.Layers) when the backend is exact
// everywhere. Layers before the frontier produce bit-identical
// activations under any backend sharing be's BaseID, so their clean
// activations can be cached and replayed — the same invariant
// InjectionFrontier provides for noise injectors.
func (n *Network) BackendFrontier(be Backend) int {
	f := n.InjectionFrontier(func(s noise.Site) bool {
		return be.ApproxLayer(s.Layer)
	})
	if nf := n.NonlinearityFrontier(nonlinearityOf(be)); nf < f {
		f = nf
	}
	return f
}

// MACDepths maps each MAC-bearing layer name to its accumulation depth:
// the number of products summed into one MAC output (conv layers:
// inCh·kh·kw; capsule votes: inDim·k·k or inDim). This is the chain
// length at which an approximate multiplier's error profile should be
// characterized for that layer (Fig. 6 of the paper shows NM/NA shifting
// with accumulation depth). Cells are broken into their constituent
// capsule layers.
func (n *Network) MACDepths() map[string]int {
	out := map[string]int{}
	var visit func(l Layer)
	visit = func(l Layer) {
		switch t := l.(type) {
		case *Conv2D:
			out[t.LayerName] = t.W.Shape[1] * t.W.Shape[2] * t.W.Shape[3]
		case *ConvCaps2D:
			out[t.LayerName] = t.W.Shape[1] * t.W.Shape[2] * t.W.Shape[3]
		case *ConvCaps3D:
			k := t.W.Shape[3]
			out[t.LayerName] = t.InDim * k * k
		case *ClassCaps:
			out[t.LayerName] = t.InDim
		case *CapsCell:
			visit(t.L1)
			visit(t.L2)
			visit(t.L3)
			visit(t.Skip)
		}
	}
	for _, l := range n.Layers {
		visit(l)
	}
	return out
}

// Sites enumerates every injection point in forward order.
func (n *Network) Sites() []noise.Site {
	var s []noise.Site
	for _, l := range n.Layers {
		s = append(s, l.Sites()...)
	}
	return s
}

// LayerNames returns the distinct site layer names in forward order —
// the row labels of the paper's layer-wise analysis (Fig. 10).
func (n *Network) LayerNames() []string {
	seen := map[string]bool{}
	var names []string
	for _, s := range n.Sites() {
		if !seen[s.Layer] {
			seen[s.Layer] = true
			names = append(names, s.Layer)
		}
	}
	return names
}

// Params merges every layer's parameters.
func (n *Network) Params() map[string]*tensor.Tensor {
	out := map[string]*tensor.Tensor{}
	for _, l := range n.Layers {
		for k, v := range l.Params() {
			out[k] = v
		}
	}
	return out
}

// Ops tallies the network's arithmetic for a batch of the given size
// (Table I of the paper uses batch 1).
func (n *Network) Ops(batch int) energy.Counts {
	shape := append([]int{batch}, n.InputShape...)
	total := energy.Counts{}
	for _, l := range n.Layers {
		var c energy.Counts
		c, shape = l.Ops(shape)
		total = total.Plus(c)
	}
	return total
}

// OpsByLayer tallies arithmetic per layer name (cells are broken into
// their constituent capsule layers), for energy-weighted analyses.
func (n *Network) OpsByLayer(batch int) map[string]energy.Counts {
	shape := append([]int{batch}, n.InputShape...)
	out := map[string]energy.Counts{}
	for _, l := range n.Layers {
		if cell, ok := l.(*CapsCell); ok {
			c1, aShape := cell.L1.Ops(shape)
			c2, bShape := cell.L2.Ops(aShape)
			c3, outShape := cell.L3.Ops(bShape)
			c4, _ := cell.Skip.Ops(aShape)
			out[cell.L1.Name()] = out[cell.L1.Name()].Plus(c1)
			out[cell.L2.Name()] = out[cell.L2.Name()].Plus(c2)
			out[cell.L3.Name()] = out[cell.L3.Name()].Plus(c3)
			out[cell.Skip.Name()] = out[cell.Skip.Name()].Plus(c4)
			shape = outShape
			continue
		}
		var c energy.Counts
		c, shape = l.Ops(shape)
		out[l.Name()] = out[l.Name()].Plus(c)
	}
	return out
}

// ClassScores returns the per-class capsule norms [batch, classes] for a
// batch of inputs.
func (n *Network) ClassScores(x *tensor.Tensor, inj noise.Injector) *tensor.Tensor {
	out := n.Forward(x, inj)
	if out.Rank() != 3 {
		panic(fmt.Sprintf("caps: network %s output rank %d, want [batch, caps, dim]", n.NetName, out.Rank()))
	}
	return tensor.NormAxis(out, 2)
}

// Classify returns the argmax class for each sample in the batch.
func (n *Network) Classify(x *tensor.Tensor, inj noise.Injector) []int {
	s := scratchPool.Get().(*tensor.Scratch)
	defer scratchPool.Put(s)
	return n.ClassifyFrom(0, x, inj, s)
}

// ClassifyFrom classifies a batch by running only the suffix layers
// [k, len(Layers)) on x (the activation at boundary k), with an optional
// scratch arena (nil allocates fresh). It is the sweep engine's
// evaluation primitive: cached clean prefixes classify via
// ClassifyFrom(frontier, prefix, inj, scratch).
func (n *Network) ClassifyFrom(k int, x *tensor.Tensor, inj noise.Injector, s *tensor.Scratch) []int {
	return n.ClassifyFromExec(k, x, inj, s, Float{})
}

// ClassifyFromExec is ClassifyFrom under an execution backend.
func (n *Network) ClassifyFromExec(k int, x *tensor.Tensor, inj noise.Injector, s *tensor.Scratch, be Backend) []int {
	out := n.ForwardFromExec(k, x, inj, s, be)
	if out.Rank() != 3 {
		panic(fmt.Sprintf("caps: network %s output rank %d, want [batch, caps, dim]", n.NetName, out.Rank()))
	}
	scores := tensor.NormAxis(out, 2)
	batch, classes := scores.Shape[0], scores.Shape[1]
	pred := make([]int, batch)
	for b := 0; b < batch; b++ {
		best, arg := scores.At(b, 0), 0
		for c := 1; c < classes; c++ {
			if v := scores.At(b, c); v > best {
				best, arg = v, c
			}
		}
		pred[b] = arg
	}
	return pred
}

// batchView slices samples [lo, hi) of x as a view (no copy).
func batchView(x *tensor.Tensor, sample, lo, hi int) *tensor.Tensor {
	shape := append([]int{hi - lo}, x.Shape[1:]...)
	return tensor.NewFrom(x.Data[lo*sample:hi*sample], shape...)
}

// Accuracy evaluates classification accuracy over a dataset, processing
// `batch` samples per forward pass. X is [n, c, h, w]; labels has length n.
//
// When the injector supports noise.Splitter, batches evaluate under
// independent counter-seeded injector streams and may run concurrently;
// the result is bit-identical for any worker count (batch i always runs
// under inj.Split(i)). Stateful injectors without Split evaluate
// sequentially with the shared injector, preserving its visit order.
func Accuracy(net *Network, x *tensor.Tensor, labels []int, inj noise.Injector, batch int) float64 {
	return AccuracyWorkers(net, x, labels, inj, batch, runtime.GOMAXPROCS(0))
}

// AccuracyWorkers is Accuracy with an explicit worker bound (values < 1
// mean serial). The worker count affects scheduling only, never results.
func AccuracyWorkers(net *Network, x *tensor.Tensor, labels []int, inj noise.Injector, batch, workers int) float64 {
	acc, err := AccuracyCtx(context.Background(), net, x, labels, inj, batch, workers)
	if err != nil {
		// Unreachable: a background context never cancels.
		panic(err)
	}
	return acc
}

// AccuracyCtx is AccuracyWorkers with cancellation: when ctx is
// cancelled the evaluation stops dispatching at the next batch boundary,
// drains in-flight batches, and returns ctx's error. The accuracy value
// is only meaningful when the error is nil.
func AccuracyCtx(ctx context.Context, net *Network, x *tensor.Tensor, labels []int, inj noise.Injector, batch, workers int) (float64, error) {
	return AccuracyExec(ctx, net, x, labels, inj, Float{}, batch, workers)
}

// AccuracyExec is AccuracyCtx under an execution backend: the same
// cancellable, deterministically-parallel evaluation loop measures the
// noise model (Float + injector) and the bit-accurate hardware model (a
// quantized backend) — the worker-count invariance carries over because
// backends are stateless and batch i always evaluates under inj.Split(i).
func AccuracyExec(ctx context.Context, net *Network, x *tensor.Tensor, labels []int, inj noise.Injector, be Backend, batch, workers int) (float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if be == nil {
		be = Float{}
	}
	n := x.Shape[0]
	if n == 0 {
		return 0, nil
	}
	if batch <= 0 {
		batch = 32
	}
	if inj == nil {
		inj = noise.None{}
	}
	sample := x.Len() / n
	nb := (n + batch - 1) / batch

	splitter, splittable := inj.(noise.Splitter)
	if !splittable {
		// Stateful injector: one shared RNG stream across all batches.
		s := scratchPool.Get().(*tensor.Scratch)
		defer scratchPool.Put(s)
		correct := 0
		for lo := 0; lo < n; lo += batch {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			hi := lo + batch
			if hi > n {
				hi = n
			}
			pred := net.ClassifyFromExec(0, batchView(x, sample, lo, hi), inj, s, be)
			for i, p := range pred {
				if p == labels[lo+i] {
					correct++
				}
			}
		}
		return float64(correct) / float64(n), nil
	}

	if workers > nb {
		workers = nb
	}
	if workers < 1 {
		workers = 1
	}
	var cancelErr error
	counts := make([]int, nb)
	evalBatch := func(bi int, s *tensor.Scratch) {
		lo := bi * batch
		hi := lo + batch
		if hi > n {
			hi = n
		}
		pred := net.ClassifyFromExec(0, batchView(x, sample, lo, hi), splitter.Split(uint64(bi)), s, be)
		c := 0
		for i, p := range pred {
			if p == labels[lo+i] {
				c++
			}
		}
		counts[bi] = c
	}
	if workers == 1 {
		s := scratchPool.Get().(*tensor.Scratch)
		for bi := 0; bi < nb; bi++ {
			if cancelErr = ctx.Err(); cancelErr != nil {
				break
			}
			evalBatch(bi, s)
		}
		scratchPool.Put(s)
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := scratchPool.Get().(*tensor.Scratch)
				defer scratchPool.Put(s)
				for bi := range jobs {
					evalBatch(bi, s)
				}
			}()
		}
	dispatch:
		for bi := 0; bi < nb; bi++ {
			select {
			case jobs <- bi:
			case <-ctx.Done():
				cancelErr = ctx.Err()
				break dispatch
			}
		}
		close(jobs)
		wg.Wait()
	}
	if cancelErr != nil {
		return 0, cancelErr
	}
	correct := 0
	for _, c := range counts {
		correct += c
	}
	return float64(correct) / float64(n), nil
}
