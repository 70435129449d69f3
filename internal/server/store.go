package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"redcane/internal/obs"
)

// JobStore is the persistence seam of the job manager: everything the
// service durably knows about a job — its manifest (spec + lifecycle
// state) and its result artifacts — moves through this interface, so job
// state is not welded to the local filesystem. The manager additionally
// asks the store for a private per-job working directory; analysis
// checkpoints and scratch state are file-shaped by design (the
// checkpoint package is what makes resume work), so even a memory store
// hands out real directories, it just treats them as disposable.
//
// DirStore is the implementation that ships: one directory per job
// under <state>/jobs/, exactly the on-disk layout the single-tenant
// server always had. The tests add MemStore, which keeps manifests and
// artifacts in process memory.
type JobStore interface {
	// Load returns every persisted job manifest, in no particular
	// order. Corrupt or alien entries are skipped, not fatal.
	Load() ([]jobFile, error)
	// Put durably records one job's manifest, atomically per job. The
	// same ID overwrites.
	Put(jf jobFile) error
	// Dir returns the job's private working directory (checkpoints,
	// scratch), creating it if needed. The directory's base name is the
	// job ID — job executors key their fleet registrations off it.
	Dir(id string) (string, error)
	// PutArtifact persists one named result artifact of a job.
	PutArtifact(id, name string, data []byte) error
	// Artifact reads one artifact back; a missing artifact reports an
	// error wrapping fs.ErrNotExist.
	Artifact(id, name string) ([]byte, error)
}

// DirStore is the directory-backed JobStore: jobs/<id>/job.json beside
// the job's checkpoints and artifacts, under one state root. It is the
// layout `redcane serve` has always used, now behind the store seam.
type DirStore struct {
	root string
	obs  *obs.Obs
}

// NewDirStore opens (creating if needed) a directory store rooted at
// <stateDir>/jobs.
func NewDirStore(stateDir string, o *obs.Obs) (*DirStore, error) {
	if o == nil {
		o = obs.New(obs.Off, nil)
	}
	root := filepath.Join(stateDir, "jobs")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	return &DirStore{root: root, obs: o}, nil
}

// Load implements JobStore: every readable jobs/<id>/job.json whose ID
// matches its directory name. Unreadable or corrupt manifests are
// warned about and skipped — one damaged job must not take the whole
// service down.
func (d *DirStore) Load() ([]jobFile, error) {
	entries, err := os.ReadDir(d.root)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	var out []jobFile
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		path := filepath.Join(d.root, e.Name(), "job.json")
		data, err := os.ReadFile(path)
		if err != nil {
			d.obs.Warn("job manifest unreadable; skipping", obs.F("path", path), obs.F("err", err))
			continue
		}
		var jf jobFile
		if err := json.Unmarshal(data, &jf); err != nil || jf.ID != e.Name() {
			d.obs.Warn("job manifest corrupt; skipping", obs.F("path", path), obs.F("err", err))
			continue
		}
		out = append(out, jf)
	}
	return out, nil
}

// Put implements JobStore (crash-safe: temp + rename).
func (d *DirStore) Put(jf jobFile) error {
	dir := filepath.Join(d.root, jf.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(jf, "", " ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, "job.json.tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, "job.json"))
}

// Dir implements JobStore.
func (d *DirStore) Dir(id string) (string, error) {
	dir := filepath.Join(d.root, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

// PutArtifact implements JobStore.
func (d *DirStore) PutArtifact(id, name string, data []byte) error {
	return os.WriteFile(filepath.Join(d.root, id, name), data, 0o644)
}

// Artifact implements JobStore.
func (d *DirStore) Artifact(id, name string) ([]byte, error) {
	return os.ReadFile(filepath.Join(d.root, id, name))
}
