package checkpoint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type section struct {
	Correct []int `json:"correct"`
	Done    bool  `json:"done"`
}

func TestOpenFreshPutGetReload(t *testing.T) {
	dir := t.TempDir()
	st, resumed, err := Open(dir, "capsnet-mnist-like-quick", 42, Fingerprint("opts-v1"))
	if err != nil || resumed {
		t.Fatalf("fresh open: resumed=%v err=%v", resumed, err)
	}
	if st.Get("sweep-1", &section{}) {
		t.Fatal("fresh store reported a section")
	}
	want := section{Correct: []int{3, 1, 4}, Done: true}
	if err := st.Put("sweep-1", want); err != nil {
		t.Fatal(err)
	}

	// A fresh handle (new process) must see the persisted section.
	st2, resumed, err := Open(dir, "capsnet-mnist-like-quick", 42, Fingerprint("opts-v1"))
	if err != nil || !resumed {
		t.Fatalf("reopen: resumed=%v err=%v", resumed, err)
	}
	var got section
	if !st2.Get("sweep-1", &got) {
		t.Fatal("section lost across reopen")
	}
	if !got.Done || len(got.Correct) != 3 || got.Correct[2] != 4 {
		t.Fatalf("section = %+v", got)
	}
}

func TestKeyMismatchIgnoresFile(t *testing.T) {
	dir := t.TempDir()
	st, _, _ := Open(dir, "b", 1, Fingerprint("a"))
	if err := st.Put("x", section{Done: true}); err != nil {
		t.Fatal(err)
	}
	// Different fingerprint → same options key no longer matches; the
	// old state must not leak into the new run.
	st2, resumed, err := Open(dir, "b", 1, Fingerprint("b"))
	if err != nil {
		t.Fatal(err)
	}
	if resumed || st2.Get("x", &section{}) {
		t.Fatal("mismatched fingerprint resumed stale state")
	}
	// Same goes for seed.
	st3, resumed, _ := Open(dir, "b", 2, Fingerprint("a"))
	if resumed || st3.Get("x", &section{}) {
		t.Fatal("mismatched seed resumed stale state")
	}
}

func TestCorruptFileReportsErrorButStaysUsable(t *testing.T) {
	dir := t.TempDir()
	path := Path(dir, "b", 1, Fingerprint("a"))
	if err := os.WriteFile(path, []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, resumed, err := Open(dir, "b", 1, Fingerprint("a"))
	if err == nil || resumed {
		t.Fatalf("corrupt file: resumed=%v err=%v", resumed, err)
	}
	// The fresh store still works and overwrites the corrupt file.
	if err := st.Put("x", section{Done: true}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, "b", 1, Fingerprint("a")); err != nil {
		t.Fatalf("overwritten checkpoint still corrupt: %v", err)
	}
}

func TestAtomicSaveLeavesNoTempFile(t *testing.T) {
	dir := t.TempDir()
	st, _, _ := Open(dir, "b", 1, Fingerprint("a"))
	if err := st.Put("x", section{}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
}

func TestPathSanitizesName(t *testing.T) {
	p := Path("d", "caps net/µ", 1, "f")
	if base := filepath.Base(p); strings.ContainsAny(base, " /µ") {
		t.Fatalf("unsanitized path %q", base)
	}
}

func TestFingerprintStableAndDistinct(t *testing.T) {
	if Fingerprint("a") != Fingerprint("a") {
		t.Fatal("fingerprint not deterministic")
	}
	if Fingerprint("a") == Fingerprint("b") {
		t.Fatal("distinct inputs collided")
	}
	if len(Fingerprint("a")) != 16 {
		t.Fatalf("fingerprint length %d", len(Fingerprint("a")))
	}
}

// sweepSection mirrors the sweep engine's checkpointed window progress.
type sweepSection struct {
	Correct     []int `json:"correct"`
	BatchesDone int   `json:"batches_done"`
	Done        bool  `json:"done"`
}

// FuzzCheckpointOpen feeds arbitrary bytes to Open as the checkpoint
// file. Open plus Get must never panic: a file either fails to parse —
// an error plus a fresh, empty store — or decodes, and either way the
// store must accept a Put that a later Open reads back.
func FuzzCheckpointOpen(f *testing.F) {
	const name, seed = "capsnet-mnist-like-quick", 42
	fp := Fingerprint("opts-v1")
	dir := f.TempDir()
	st, _, err := Open(dir, name, seed, fp)
	if err != nil {
		f.Fatal(err)
	}
	if err := st.Put("sweep-1", sweepSection{Correct: []int{3, 1, 4}, BatchesDone: 2}); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(st.Path())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, cut := range []int{1, len(valid) / 3, len(valid) / 2, len(valid) - 2} {
		f.Add(valid[:cut])
	}
	f.Add([]byte(`{"version":1,"name":"capsnet-mnist-like-quick","seed":42,"fingerprint":"` + fp +
		`","sections":{"sweep-1":{"correct":"x","batches_done":-1},"sweep-2":null}}`))
	f.Add([]byte(`{"sections":[]}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(Path(dir, name, seed, fp), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, resumed, err := Open(dir, name, seed, fp)
		if st == nil {
			t.Fatal("Open returned a nil store")
		}
		var sec sweepSection
		got := st.Get("sweep-1", &sec)
		st.Get("sweep-2", &sec)
		if err != nil && (resumed || got) {
			t.Fatalf("parse error %v yet resumed=%v section=%v", err, resumed, got)
		}
		if err := st.Put("probe", sweepSection{Correct: []int{1}, Done: true}); err != nil {
			t.Fatal(err)
		}
		back, resumed, err := Open(dir, name, seed, fp)
		if err != nil || !resumed || !back.Get("probe", &sec) || !sec.Done {
			t.Fatalf("store did not round-trip after Put: resumed=%v err=%v section=%+v", resumed, err, sec)
		}
	})
}
