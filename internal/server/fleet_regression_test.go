package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"redcane/internal/core"
)

// ---- Completion count validation (protocol hardening) ----

// boundedWireSweep is a wire sweep with enough shape for the coordinator
// to bound honest counts: Batch=10, Examples=12, NB=2 — so window [0,1)
// holds 10 examples and the tail window [1,2) only 2.
func boundedWireSweep(id string) WireSweep {
	ws := testWireSweep(id, 1, 2)
	ws.Options.Batch = 10
	ws.Examples = 12
	return ws
}

func TestFleetCompleteRejectsOutOfRangeCounts(t *testing.T) {
	m, _, o := testFleetManager(time.Minute)
	ch, err := m.runSweep(context.Background(), boundedWireSweep("j1/s1"), 0)
	if err != nil {
		t.Fatal(err)
	}

	// A count above the window's example capacity cannot come from an
	// honest evaluation; it must be rejected before it reaches the fold.
	if _, err := m.Complete(completeRequest{SweepID: "j1/s1", B0: 0, B1: 1, Correct: []int{11}}); err == nil {
		t.Fatal("count above the full-batch bound accepted")
	}
	// The tail window holds Examples - B0*Batch = 2 examples, not Batch.
	if _, err := m.Complete(completeRequest{SweepID: "j1/s1", B0: 1, B1: 2, Correct: []int{3}}); err == nil {
		t.Fatal("count above the tail-window bound accepted")
	}
	// Negative counts are impossible regardless of batch shape.
	if _, err := m.Complete(completeRequest{SweepID: "j1/s1", B0: 0, B1: 1, Correct: []int{-1}}); err == nil {
		t.Fatal("negative count accepted")
	}
	if v := o.Metrics().Counter("fleet.completions.out_of_range").Value(); v != 3 {
		t.Fatalf("out_of_range counter = %d, want 3", v)
	}

	// Nothing was folded and the windows stay pending: honest completions
	// still land afterwards.
	select {
	case r := <-ch:
		t.Fatalf("rejected completion reached the fold: %+v", r)
	default:
	}
	if st := m.Status(); st.WindowsPending != 2 {
		t.Fatalf("status after rejections = %+v", st)
	}
	for _, c := range []completeRequest{
		{SweepID: "j1/s1", B0: 0, B1: 1, Correct: []int{10}},
		{SweepID: "j1/s1", B0: 1, B1: 2, Correct: []int{2}},
	} {
		if status, err := m.Complete(c); err != nil || status != CompleteOK {
			t.Fatalf("honest complete [%d,%d): %q, %v", c.B0, c.B1, status, err)
		}
	}
	n := 0
	for range ch {
		n++
	}
	if n != 2 {
		t.Fatalf("folded %d windows, want 2", n)
	}

	// Sweeps registered without a batch size (pre-existing wire shape)
	// keep the legacy behavior: no upper bound, negatives still rejected.
	ch2, err := m.runSweep(context.Background(), testWireSweep("j1/legacy", 1, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Complete(completeRequest{SweepID: "j1/legacy", B0: 0, B1: 1, Correct: []int{-2}}); err == nil {
		t.Fatal("negative count accepted on a batchless sweep")
	}
	if status, err := m.Complete(completeRequest{SweepID: "j1/legacy", B0: 0, B1: 1, Correct: []int{999}}); err != nil || status != CompleteOK {
		t.Fatalf("batchless complete: %q, %v", status, err)
	}
	for range ch2 {
	}
}

func TestFleetCompleteOutOfRangeHTTP(t *testing.T) {
	s, ts := newTestServer(t, Config{}, instantRun(Artifacts{Text: "x"}))
	ch, err := s.Fleet().runSweep(context.Background(), boundedWireSweep("j1/s1"), 0)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/fleet/complete", "application/json",
		strings.NewReader(`{"sweep_id":"j1/s1","b0":0,"b1":1,"correct":[100]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range completion: HTTP %d, want 400", resp.StatusCode)
	}
	select {
	case r := <-ch:
		t.Fatalf("rejected completion reached the fold: %+v", r)
	default:
	}
}

// ---- Lease release ----

func TestFleetReleaseIdempotent(t *testing.T) {
	m, _, o := testFleetManager(time.Hour)
	ch, err := m.runSweep(context.Background(), testWireSweep("j1/s1", 1, 2), 0)
	if err != nil {
		t.Fatal(err)
	}

	l1, ok := m.Lease("w1")
	if !ok {
		t.Fatal("lease refused")
	}
	if !m.Release(l1.LeaseID, "w1") {
		t.Fatal("live lease refused release")
	}
	// The window is pending again immediately — no TTL wait — and goes to
	// the next worker. (The hour-long TTL guarantees this test would hang
	// on expiry-based reclamation.)
	l2, ok := m.Lease("w2")
	if !ok || l2.B0 != l1.B0 {
		t.Fatalf("released window not re-leased: %+v, %v", l2, ok)
	}
	// Releasing the stale lease again changes nothing for w2's lease.
	if m.Release(l1.LeaseID, "w1") {
		t.Fatal("stale release reported success")
	}
	if m.Renew(l2.LeaseID, "w2") != true {
		t.Fatal("current lease broken by a stale release")
	}
	// A completed window's lease cannot be released either.
	if status, err := m.Complete(completeRequest{LeaseID: l2.LeaseID, Worker: "w2", SweepID: "j1/s1", B0: l2.B0, B1: l2.B1, Correct: []int{1}}); err != nil || status != CompleteOK {
		t.Fatalf("complete: %q, %v", status, err)
	}
	if m.Release(l2.LeaseID, "w2") {
		t.Fatal("completed window released")
	}
	if m.Release("L999999", "w9") {
		t.Fatal("unknown lease released")
	}
	if v := o.Metrics().Counter("fleet.leases.released").Value(); v != 1 {
		t.Fatalf("released counter = %d, want 1", v)
	}

	if status, err := m.Complete(completeRequest{SweepID: "j1/s1", B0: 1, B1: 2, Correct: []int{1}}); err != nil || status != CompleteOK {
		t.Fatalf("second window: %q, %v", status, err)
	}
	for range ch {
	}
}

func TestFleetReleaseHTTP(t *testing.T) {
	s, ts := newTestServer(t, Config{}, instantRun(Artifacts{Text: "x"}))
	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/fleet/release", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Status string `json:"status"`
		}
		json.NewDecoder(resp.Body).Decode(&out) //nolint:errcheck
		resp.Body.Close()
		return resp.StatusCode, out.Status
	}

	// Release is advisory: an unknown lease is still a 200, just "unknown".
	if code, status := post(`{"lease_id":"L000001","worker":"w1"}`); code != http.StatusOK || status != "unknown" {
		t.Fatalf("unknown release: HTTP %d, status %q", code, status)
	}

	ch, err := s.Fleet().runSweep(context.Background(), testWireSweep("j1/s1", 1, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	l, ok := s.Fleet().Lease("w1")
	if !ok {
		t.Fatal("lease refused")
	}
	if code, status := post(fmt.Sprintf(`{"lease_id":%q,"worker":"w1"}`, l.LeaseID)); code != http.StatusOK || status != "released" {
		t.Fatalf("release: HTTP %d, status %q", code, status)
	}
	if _, err := s.Fleet().Complete(completeRequest{SweepID: "j1/s1", B0: 0, B1: 1, Correct: []int{1}}); err != nil {
		t.Fatal(err)
	}
	for range ch {
	}
}

// TestBrokenWorkerReleasesWindows is the satellite regression: a fleet of
// one broken worker (its Resolve always fails) and one healthy worker
// must finish a distributed job promptly. The hour-long lease TTL makes
// the test hang unless the broken worker actively hands its windows back
// instead of letting them expire.
func TestBrokenWorkerReleasesWindows(t *testing.T) {
	want := fleetBaseline(t)
	fm := make(chan *FleetManager, 1)
	s, ts := newTestServer(t, Config{LeaseTTL: time.Hour}, fleetRunFunc(fm))
	fm <- s.Fleet()

	startWorker(t, ts.URL, "broken", func(ws WireSweep) (*core.Analyzer, error) {
		return nil, errors.New("synthetic resolve failure")
	})
	startWorker(t, ts.URL, "healthy", fixtureResolve(0))

	st, resp := postJob(t, ts, `{"kind":"group-sweep","distributed":true}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	waitState(t, ts, st.ID, StateDone)
	if got := getResult(t, ts, st.ID); got != want {
		t.Fatalf("mixed-fleet run differs from single-process run:\n%s\nvs\n%s", got, want)
	}
}

// ---- Cancelled-sweep re-registration (drain-requeue race) ----

// TestFleetCancelledSweepReRegisters pins the drain-requeue fix: a job
// whose context was cancelled re-registers the same sweep ID immediately
// and deterministically, without waiting for the old registration's
// teardown goroutine to run.
func TestFleetCancelledSweepReRegisters(t *testing.T) {
	m, _, _ := testFleetManager(time.Minute)
	for i := 0; i < 50; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		old, err := m.runSweep(ctx, testWireSweep("j1/s1", 1, 2), 0)
		if err != nil {
			t.Fatalf("iter %d: register: %v", i, err)
		}
		cancel()
		// No settling: the re-registration must win the race against the
		// teardown goroutine every time.
		fresh, err := m.runSweep(context.Background(), testWireSweep("j1/s1", 1, 2), 0)
		if err != nil {
			t.Fatalf("iter %d: re-register after cancel: %v", i, err)
		}
		// The replaced registration's channel closes (synchronously, in
		// runSweep) and the fresh one is live.
		select {
		case _, open := <-old:
			if open {
				t.Fatalf("iter %d: dead sweep delivered a result", i)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("iter %d: dead sweep's channel never closed", i)
		}
		for b0 := 0; b0 < 2; b0++ {
			if status, err := m.Complete(completeRequest{SweepID: "j1/s1", B0: b0, B1: b0 + 1, Correct: []int{1}}); err != nil || status != CompleteOK {
				t.Fatalf("iter %d: complete window %d: %q, %v", i, b0, status, err)
			}
		}
		for range fresh {
		}
	}
	// A live registration is still protected against duplicates.
	ch, err := m.runSweep(context.Background(), testWireSweep("j1/s1", 1, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.runSweep(context.Background(), testWireSweep("j1/s1", 1, 1), 0); err == nil {
		t.Fatal("live duplicate registration accepted")
	}
	if _, err := m.Complete(completeRequest{SweepID: "j1/s1", B0: 0, B1: 1, Correct: []int{1}}); err != nil {
		t.Fatal(err)
	}
	for range ch {
	}
}

// ---- Worker-state bounds ----

func TestFleetWorkerStatePruning(t *testing.T) {
	m, fc, _ := testFleetManager(time.Second)
	m.Lease("old-worker") // no work, but liveness is recorded
	fc.Advance(5 * time.Second)
	m.Lease("new-worker")

	st := m.Status()
	if _, ok := st.Workers["old-worker"]; !ok {
		t.Fatalf("worker pruned before %d TTLs: %+v", workerPruneTTLs, st.Workers)
	}
	// Past workerPruneTTLs lease lifetimes without contact, the worker has
	// left the fleet and its entry is dropped.
	fc.Advance(time.Duration(workerPruneTTLs) * time.Second)
	st = m.Status()
	if _, ok := st.Workers["old-worker"]; ok {
		t.Fatalf("stale worker still tracked: %+v", st.Workers)
	}
	if _, ok := st.Workers["new-worker"]; !ok {
		t.Fatalf("live worker pruned: %+v", st.Workers)
	}
}

func TestFleetWorkerTableBounded(t *testing.T) {
	m, fc, _ := testFleetManager(time.Hour)
	for i := 0; i < maxTrackedWorkers+10; i++ {
		m.Lease(fmt.Sprintf("w%04d", i))
		fc.Advance(time.Millisecond) // distinct last-seen times, far under the prune cutoff
	}
	st := m.Status()
	if len(st.Workers) != maxTrackedWorkers {
		t.Fatalf("worker table holds %d entries, cap is %d", len(st.Workers), maxTrackedWorkers)
	}
	// The earliest arrivals were evicted to make room; the newest stayed.
	if _, ok := st.Workers["w0000"]; ok {
		t.Fatal("oldest worker survived eviction")
	}
	if _, ok := st.Workers[fmt.Sprintf("w%04d", maxTrackedWorkers+9)]; !ok {
		t.Fatal("newest worker missing from the table")
	}
}

func TestFleetWorkerSeriesCapAndSanitization(t *testing.T) {
	nWorkers := maxWorkerSeries + 6
	m, _, o := testFleetManager(time.Minute)
	ch, err := m.runSweep(context.Background(), testWireSweep("j1/s1", 1, nWorkers), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Every window is leased and completed by a distinct worker; one has a
	// hostile name that must be sanitized in the metric series.
	for i := 0; i < nWorkers; i++ {
		name := fmt.Sprintf("w%04d", i)
		if i == 0 {
			name = "w spa/ce{0}"
		}
		l, ok := m.Lease(name)
		if !ok {
			t.Fatalf("lease %d refused", i)
		}
		if status, err := m.Complete(completeRequest{
			LeaseID: l.LeaseID, Worker: name, SweepID: "j1/s1",
			B0: l.B0, B1: l.B1, Correct: []int{1},
		}); err != nil || status != CompleteOK {
			t.Fatalf("complete %d: %q, %v", i, status, err)
		}
	}
	for range ch {
	}

	snap := o.Metrics().Snapshot()
	perWorker := 0
	for name := range snap.Timers {
		if strings.HasPrefix(name, "fleet.worker.") {
			perWorker++
			if strings.ContainsAny(name[len("fleet.worker."):], " /{}") {
				t.Fatalf("unsanitized worker series %q", name)
			}
		}
	}
	if perWorker != maxWorkerSeries {
		t.Fatalf("per-worker series = %d, cap is %d", perWorker, maxWorkerSeries)
	}
	if _, ok := snap.Timers["fleet.worker.w_spa_ce_0_.window"]; !ok {
		t.Fatalf("sanitized series missing; timers = %v", snap.Timers)
	}
	// The fleet-wide window timer saw every completion, capped or not.
	if ws, ok := snap.Timers["fleet.window"]; !ok || ws.Count != int64(nWorkers) {
		t.Fatalf("fleet.window count = %+v, want %d observations", ws, nWorkers)
	}
}
