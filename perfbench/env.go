package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// bench is one benchmark process: its flags, working directories and
// machine header.
type bench struct {
	opts    options
	root    string // checkout root
	out     string // .bench_build/perfbench: everything the benchmark writes
	weights string // weight cache of this source tree
	scratch string // per-process working directory, removed on exit
	machine machineHeader
	nproc   int
	tmpSeq  int
}

// machineHeader identifies where and on what code a result was measured.
// Results from different machines must never be compared.
type machineHeader struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	SourceTree string  `json:"source_tree"`
	AVX        bool    `json:"avx_kernels"`
	AVXReason  string  `json:"avx_reason"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
}

// newBench prepares one process's working directory. The weight cache
// and machine header come from the flags the parent passes; the parent
// itself fills them in with identify.
func newBench(o options) (*bench, error) {
	root, err := filepath.Abs(o.root)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return nil, fmt.Errorf("checkout root %s has no go.mod: %w", root, err)
	}
	out := filepath.Join(root, ".bench_build", "perfbench")
	scratch := filepath.Join(out, "runs", strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	b := &bench{opts: o, root: root, out: out, weights: o.weights, scratch: scratch, nproc: runtime.GOMAXPROCS(0)}
	if o.machine != "" {
		if err := json.Unmarshal([]byte(o.machine), &b.machine); err != nil {
			return nil, fmt.Errorf("machine header: %w", err)
		}
	}
	return b, nil
}

// identify hashes the program's sources, which names the weight cache,
// and fills in the machine header.
func (b *bench) identify() error {
	tree, err := sourceTreeHash(b.root)
	if err != nil {
		return err
	}
	b.weights = filepath.Join(b.out, "weights", tree[:16])
	avx, why := avxActive()
	o := b.opts
	b.machine = machineHeader{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(b.root),
		SourceTree: tree[:16],
		AVX:        avx,
		AVXReason:  why,
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
	}
	return nil
}

// cleanup removes the per-process working directory.
func (b *bench) cleanup() { os.RemoveAll(b.scratch) }

// tempDir returns a fresh empty directory under the per-process scratch.
func (b *bench) tempDir(prefix string) (string, error) {
	b.tmpSeq++
	dir := filepath.Join(b.scratch, fmt.Sprintf("%s-%d", prefix, b.tmpSeq))
	return dir, os.MkdirAll(dir, 0o755)
}

// sourceTreeHash hashes the program's Go sources (every .go file and
// go.mod outside the benchmark's own directory and .bench_build), so the
// weight cache is keyed by the code that trained it. It identifies the
// code when the checkout is not a git repository.
func sourceTreeHash(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(rel, ".go") || rel == "go.mod" {
			files = append(files, rel)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(root, f))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// gitCommit is the checkout's HEAD commit, or "none" outside a git
// repository (then source_tree identifies the code).
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// avxActive mirrors the tensor package's gate on its AVX kernels: amd64,
// a CPU reporting AVX, and REDCANE_NOSIMD unset. The package reads CPUID
// directly; this reads the kernel's view of the same flag.
func avxActive() (bool, string) {
	if runtime.GOARCH != "amd64" {
		return false, "not amd64"
	}
	if os.Getenv("REDCANE_NOSIMD") != "" {
		return false, "REDCANE_NOSIMD set"
	}
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return false, "cpu flags unreadable"
	}
	for _, line := range strings.Split(string(data), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(k) != "flags" {
			continue
		}
		for _, f := range strings.Fields(v) {
			if f == "avx" {
				return true, "cpu flag avx"
			}
		}
		return false, "cpu lacks avx"
	}
	return false, "cpu flags unreadable"
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(v)
			if len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// cpuTicks reads the machine's stolen and total CPU time, in clock ticks,
// from the first line of /proc/stat (zeros when unreadable).
func cpuTicks() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; the guest fields
	// after them are already counted in user and nice.
	for i, v := range f[1:9] {
		x, _ := strconv.ParseFloat(v, 64)
		total += x
		if i == 7 {
			steal = x
		}
	}
	return steal, total
}

// copyFile copies src to dst.
func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// dirBytes sums the sizes of the regular files under dir whose names
// match the glob pattern.
func dirBytes(dir, pattern string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if d.IsDir() {
			return nil
		}
		if ok, _ := filepath.Match(pattern, d.Name()); !ok {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
