package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"redcane/internal/caps"
	"redcane/internal/core"
	"redcane/internal/datasets"
	"redcane/internal/experiments"
	"redcane/internal/noise"
	"redcane/internal/server"
	"redcane/internal/tensor"
)

// serveBenchmark is the benchmark every served job sweeps.
const serveBenchmark = "capsnet-mnist-like"

type serveInst struct {
	b      *bench
	dir    string
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	spec   server.JobSpec
	ref    []byte // CSV of the same spec run in-process
	// examples a job pushes through the network, counted on the
	// in-process run
	examples float64
}

// serveGrid draws the job's NM grid from the seed: two distinct nonzero
// magnitudes of the paper's grid, plus the noiseless point.
func serveGrid(seed uint64) []float64 {
	var nz []float64
	for _, nm := range core.PaperNMSweep {
		if nm > 0 {
			nz = append(nz, nm)
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0x5e57e))
	perm := rng.Perm(len(nz))
	grid := []float64{nz[perm[0]], nz[perm[1]], 0}
	sort.Sort(sort.Reverse(sort.Float64Slice(grid)))
	return grid
}

// setupServe starts an in-process server over a fresh state directory
// holding the weight cache, behind a loopback listener. Jobs carry the
// run's seed, so the cached weights are copied under that seed's name.
func setupServe(b *bench, sp *span) (instance, error) {
	dir, err := b.tempDir("serve")
	if err != nil {
		return nil, err
	}
	seed := b.opts.seed
	csp := sp.child("setup.weights_copy")
	err = copyFile(weightFile(b.weights, serveBenchmark, weightSeed), weightFile(dir, serveBenchmark, seed))
	csp.end()
	if err != nil {
		return nil, err
	}
	csp = sp.child("setup.server_start")
	defer csp.end()
	srv, err := server.New(server.Config{
		StateDir: dir, Quick: true, Seed: seed, Workers: b.nproc, Slots: b.nproc,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &serveInst{
		b: b, dir: dir, srv: srv, hs: server.NewHTTPServer("", srv), served: make(chan error, 1),
		base: "http://" + ln.Addr().String(),
		spec: server.JobSpec{
			Kind: server.KindGroupSweep, Benchmark: serveBenchmark, Seed: &seed, NMSweep: serveGrid(seed),
		},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := server.NewClient(s.base, "").ServerHealth(ctx); err != nil {
		s.close()
		return nil, fmt.Errorf("server health: %w", err)
	}
	return s, nil
}

// close drains the job manager, shuts the listener down and waits for
// the serving goroutine to return.
func (s *serveInst) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: serve drain:", err)
	}
	if err := s.hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: serve shutdown:", err)
	}
	if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
	}
}

// reference runs the job's spec in-process with experiments.Runner —
// the same entry point the server calls — and keeps its CSV. A probe set
// on the run counts the output elements of the network's last MAC layer
// at every evaluated point; divided by that layer's outputs per example,
// they give the examples one job pushes through the network.
func (s *serveInst) reference() error {
	if s.ref != nil {
		return nil
	}
	bm, err := experiments.FindBenchmark(serveBenchmark)
	if err != nil {
		return err
	}
	probes := core.NewProbeSet()
	r := experiments.NewRunner(experiments.Config{
		Dir: s.dir, Quick: true, Seed: *s.spec.Seed, Workers: s.b.nproc, Probes: probes,
	})
	res, err := r.GroupSweep(bm, experiments.Overrides{NMSweep: s.spec.NMSweep})
	if err != nil {
		return err
	}
	t, err := r.Trained(bm)
	if err != nil {
		return err
	}
	if s.examples, err = probedExamples(probes, t.Net, t.Data); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		return err
	}
	s.ref = buf.Bytes()
	return nil
}

// probedExamples counts the examples behind a probe set's sweeps: every
// evaluated point's output-element count at the network's last MAC
// layer, over that layer's outputs for one example of ds.
func probedExamples(probes *core.ProbeSet, net *caps.Network, ds *datasets.Dataset) (float64, error) {
	rec := caps.NewProbeRecorder()
	x := tensor.NewFrom(ds.TestX.Data[:ds.TestX.Len()/ds.TestX.Shape[0]], append([]int{1}, ds.TestX.Shape[1:]...)...)
	if _, err := caps.AccuracyExec(context.Background(), net, x, ds.TestY[:1], noise.None{},
		caps.NewProbeBackend(caps.Float{}, rec), 1, 1); err != nil {
		return 0, err
	}
	one := rec.Layers()
	if len(one) == 0 {
		return 0, fmt.Errorf("probe: no MAC layer observed")
	}
	last := one[len(one)-1]
	var total int64
	for _, sw := range probes.Sweeps() {
		for _, pt := range sw.Points {
			for _, l := range pt.Layers {
				if l.Layer == last.Layer {
					total += l.Count
				}
			}
		}
	}
	if total == 0 || total%last.Count != 0 {
		return 0, fmt.Errorf("probe: %d outputs at %s is not a whole number of examples of %d",
			total, last.Layer, last.Count)
	}
	return float64(total / last.Count), nil
}

// jobRecord is what one client saw of one job.
type jobRecord struct {
	latency         time.Duration // submit to the end of the event stream
	submit, result  time.Duration
	queueWait, run  time.Duration
	events          int
	checkpointBytes int64
	examples        float64
	refused         bool
	err             error
}

func (s *serveInst) phase(d time.Duration, parent *span) phaseStats {
	if err := s.reference(); err != nil {
		return phaseStats{attempted: 1, failed: 1, failures: []string{"reference: " + err.Error()}}
	}
	var mu sync.Mutex
	var recs []jobRecord
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < s.b.nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := server.NewClient(s.base, "")
			for i := 0; i == 0 || time.Since(start) < d; i++ {
				rec := s.job(cl, parent.track("job", int64(c+1)))
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	ps := phaseStats{elapsed: time.Since(start), peakRSSMB: peakRSSMB()}
	var submit, result, wait, run, events, ckpt []float64
	refused := 0
	for _, r := range recs {
		ps.attempted++
		if r.refused {
			refused++
		}
		if r.err != nil {
			ps.failed++
			ps.failures = append(ps.failures, r.err.Error())
			continue
		}
		ps.examples += r.examples
		ps.latencies = append(ps.latencies, r.latency.Seconds())
		submit = append(submit, ms(r.submit))
		result = append(result, ms(r.result))
		wait = append(wait, ms(r.queueWait))
		run = append(run, r.run.Seconds())
		events = append(events, float64(r.events))
		ckpt = append(ckpt, float64(r.checkpointBytes))
	}
	if parent != nil {
		m := metrics{}
		m.set("server.submit_ms", median(submit), "ms")
		m.set("server.queue_wait_ms", median(wait), "ms")
		m.set("server.run_s", median(run), "s")
		m.set("server.result_ms", median(result), "ms")
		m.set("server.events_per_job", median(events), "count")
		m.set("server.refused_ratio", float64(refused)/float64(ps.attempted), "ratio")
		m.set("checkpoint.bytes_per_job", median(ckpt), "bytes")
		ps.layers = m
	}
	return ps
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// job submits the spec, follows the job's event stream to its end,
// fetches the final status and the CSV result, and checks that the
// stream ended in "job done" and the CSV is byte-identical to the
// in-process reference.
func (s *serveInst) job(cl *server.Client, sp *span) (rec jobRecord) {
	defer sp.end()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	t0 := time.Now()
	csp := sp.child("server.Client.Submit")
	st, err := cl.Submit(ctx, s.spec)
	csp.end()
	rec.submit = time.Since(t0)
	if err != nil {
		var apiErr *server.APIError
		rec.refused = errors.As(err, &apiErr)
		rec.err = fmt.Errorf("submit: %w", err)
		return rec
	}
	csp = sp.child("server.events")
	n, last, err := s.followEvents(ctx, st.ID)
	csp.end()
	rec.latency = time.Since(t0)
	rec.events = n
	if err != nil {
		rec.err = fmt.Errorf("job %s events: %w", st.ID, err)
		return rec
	}
	id := st.ID
	csp = sp.child("server.Client.Status")
	st, err = cl.Status(ctx, id)
	csp.end()
	if err != nil {
		rec.err = fmt.Errorf("job %s status: %w", id, err)
		return rec
	}
	rec.queueWait, rec.run = st.Started.Sub(st.Created), st.Ended.Sub(st.Started)
	t1 := time.Now()
	csp = sp.child("server.Client.Result")
	csv, err := cl.Result(ctx, st.ID, "csv")
	csp.end()
	rec.result = time.Since(t1)
	if err != nil {
		rec.err = fmt.Errorf("job %s result: %w", st.ID, err)
		return rec
	}
	if rec.err = checkServe(st.ID, st.State, last, csv, s.ref); rec.err != nil {
		return rec
	}
	rec.checkpointBytes, _ = dirBytes(filepath.Join(s.dir, "jobs", st.ID), "ckpt-*")
	rec.examples = s.examples
	return rec
}

// checkServe verifies one served job: it finished, its event stream's
// last event says so, and its CSV equals the in-process reference.
func checkServe(id, state, lastEvent string, csv, ref []byte) error {
	if state != server.StateDone {
		return fmt.Errorf("check: job %s ended %s", id, state)
	}
	if lastEvent != "job done" {
		return fmt.Errorf("check: job %s event stream ended with %q, not \"job done\"", id, lastEvent)
	}
	if !bytes.Equal(csv, ref) {
		return fmt.Errorf("check: job %s CSV (%d bytes) differs from the in-process GroupSweep (%d bytes)",
			id, len(csv), len(ref))
	}
	return nil
}

// followEvents reads a job's NDJSON event stream until the server closes
// it at the job's terminal state, returning the event count and the last
// event's message.
func (s *serveInst) followEvents(ctx context.Context, id string) (int, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return 0, "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, "", fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	n, last := 0, ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var e struct {
			Msg string `json:"msg"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return n, last, fmt.Errorf("event %d: %w", n, err)
		}
		n++
		last = e.Msg
	}
	return n, last, sc.Err()
}
