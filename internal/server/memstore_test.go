package server

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// MemStore is the in-memory JobStore: manifests and artifacts live in
// process maps and vanish with the process. Working directories are
// still real (under a scratch root) because checkpoints are files, but
// nothing read back through the store touches them. Tests use it to run
// the full manager without a state directory; it also demonstrates that
// nothing in the manager depends on the dir layout.
type MemStore struct {
	mu        sync.Mutex
	scratch   string // lazily created root for Dir
	manifests map[string]jobFile
	artifacts map[string]map[string][]byte
}

// NewMemStore builds an empty memory store.
func NewMemStore() *MemStore {
	return &MemStore{
		manifests: map[string]jobFile{},
		artifacts: map[string]map[string][]byte{},
	}
}

// Load implements JobStore.
func (m *MemStore) Load() ([]jobFile, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]jobFile, 0, len(m.manifests))
	for _, jf := range m.manifests {
		out = append(out, jf)
	}
	return out, nil
}

// Put implements JobStore.
func (m *MemStore) Put(jf jobFile) error {
	m.mu.Lock()
	m.manifests[jf.ID] = jf
	m.mu.Unlock()
	return nil
}

// Dir implements JobStore: a scratch directory per job, created under a
// lazily-allocated temp root.
func (m *MemStore) Dir(id string) (string, error) {
	m.mu.Lock()
	if m.scratch == "" {
		root, err := os.MkdirTemp("", "redcane-memstore-")
		if err != nil {
			m.mu.Unlock()
			return "", err
		}
		m.scratch = root
	}
	root := m.scratch
	m.mu.Unlock()
	dir := filepath.Join(root, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

// PutArtifact implements JobStore.
func (m *MemStore) PutArtifact(id, name string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	files, ok := m.artifacts[id]
	if !ok {
		files = map[string][]byte{}
		m.artifacts[id] = files
	}
	files[name] = append([]byte(nil), data...)
	return nil
}

// Artifact implements JobStore.
func (m *MemStore) Artifact(id, name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.artifacts[id][name]
	if !ok {
		return nil, fmt.Errorf("artifact %s/%s: %w", id, name, fs.ErrNotExist)
	}
	return append([]byte(nil), data...), nil
}
