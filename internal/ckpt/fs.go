// Package ckpt implements the durable checkpoint repository: the on-disk
// (or in-memory) format that the page manager's committer writes and that
// restart reads back. An epoch's pages are appended to a segment file as
// self-checking records; the epoch is sealed by writing its manifest last,
// so a crash mid-checkpoint leaves an unsealed epoch that restore ignores —
// restart always sees a consistent image, which is the correctness contract
// of checkpoint-restart.
//
// That contract rests on two FS properties, both part of the FS interface's
// publish-on-close semantics: a file created through Create is invisible
// until its writer's Close returns (atomicity — a reader never sees a
// half-written manifest), and once Close returns the content is durable
// (OSFS fsyncs the file and its directory around the rename that publishes
// it). Write ordering alone — segment before manifest — is therefore a real
// persist barrier, not an accident of append order.
package ckpt

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
)

// FS is the minimal filesystem surface the repository needs; it has a real
// directory-backed implementation (OSFS) and an in-memory one (MemFS) for
// tests and simulations.
//
// Create follows publish-on-close semantics: the returned writer stages the
// file's content, and only a successful Close makes the file visible to
// Open/List — atomically replacing any previous content under the same
// name, and durably where the medium supports it (OSFS: temp file → fsync →
// rename → directory fsync). A writer abandoned without Close (or discarded
// via Discard) publishes nothing. Every repository commit point — epoch
// manifests, base manifests, segment files, tier-manifest mirrors — relies
// on this contract.
type FS interface {
	// Create opens name for writing; the file is published atomically (and
	// durably, medium permitting) when the returned writer is closed.
	Create(name string) (io.WriteCloser, error)
	// Open opens name for reading.
	Open(name string) (io.ReadCloser, error)
	// List returns all file names, sorted.
	List() ([]string, error)
	// Remove deletes name.
	Remove(name string) error
}

// Aborter is implemented by FS writers that can abandon a file mid-write:
// Abort discards everything staged without publishing, leaving any previous
// content under the name untouched.
type Aborter interface {
	Abort() error
}

// Discard abandons a writer without publishing its content when the writer
// supports it (all FS implementations in this module do); otherwise it falls
// back to Close. Error paths use it so a failed segment or manifest write
// never publishes a partial file over a good one.
func Discard(w io.WriteCloser) {
	if w == nil {
		return
	}
	if a, ok := w.(Aborter); ok {
		_ = a.Abort()
		return
	}
	_ = w.Close()
}

// MemFS is an in-memory FS. The zero value is ready to use. Files are
// published on Close, atomically, matching the FS contract (durability is
// moot in memory).
type MemFS struct {
	mu    sync.Mutex
	files map[string][]byte
}

type memFile struct {
	fs   *MemFS
	name string
	buf  []byte
	done bool
}

func (f *memFile) Write(p []byte) (int, error) {
	if f.done {
		return 0, fmt.Errorf("ckpt: write to closed file %q", f.name)
	}
	f.buf = append(f.buf, p...)
	return len(p), nil
}

func (f *memFile) Close() error {
	if f.done {
		return nil
	}
	f.done = true
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.fs.files[f.name] = f.buf
	return nil
}

// Abort implements Aborter: the staged content is dropped unpublished.
func (f *memFile) Abort() error {
	f.done = true
	f.buf = nil
	return nil
}

// Create implements FS.
func (m *MemFS) Create(name string) (io.WriteCloser, error) {
	m.mu.Lock()
	if m.files == nil {
		m.files = map[string][]byte{}
	}
	m.mu.Unlock()
	return &memFile{fs: m, name: name}, nil
}

// memReader is an open MemFS file: seekable, like an OSFS one, so a
// restore passes over the records it does not use without copying them.
type memReader struct{ *bytes.Reader }

func (memReader) Close() error { return nil }

// Open implements FS. A missing file wraps fs.ErrNotExist, matching OSFS,
// so callers can distinguish "vanished" from real I/O failures. The reader
// shares the published slice: nothing mutates one in place (Close publishes
// a finished buffer, Truncate reslices, a rewrite publishes a new slice).
func (m *MemFS) Open(name string) (io.ReadCloser, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("ckpt: file %q does not exist: %w", name, iofs.ErrNotExist)
	}
	return memReader{bytes.NewReader(data)}, nil
}

// List implements FS.
func (m *MemFS) List() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.files))
	for n := range m.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// Remove implements FS.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return fmt.Errorf("ckpt: file %q does not exist", name)
	}
	delete(m.files, name)
	return nil
}

// tmpPrefix marks not-yet-published staging files in an OSFS directory.
// List hides them and NewOSFS sweeps orphans left by a crash mid-write.
const tmpPrefix = ".tmp-"

// tmpSeq disambiguates concurrent staging files for the same target name.
var tmpSeq atomic.Uint64

// OSFS stores files in a real directory with publish-on-close semantics:
// Create writes to a hidden temp file, and Close fsyncs it, renames it over
// the final name and fsyncs the directory — the POSIX atomic-durable-publish
// protocol. A crash at any point leaves either the old content or the new,
// never a torn mix, and a published file survives power loss.
type OSFS struct {
	Dir string
}

// NewOSFS creates (if necessary) and wraps dir, sweeping any staging files
// orphaned by an earlier crash mid-publish. It is the writer's opener: the
// sweep would unlink the staging file of a publish in flight, so only the
// process that owns the directory may call it (readers use OpenOSFS).
func NewOSFS(dir string) (*OSFS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	if entries, err := os.ReadDir(dir); err == nil {
		for _, e := range entries {
			if !e.IsDir() && strings.HasPrefix(e.Name(), tmpPrefix) {
				_ = os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
	return &OSFS{Dir: dir}, nil
}

// OpenOSFS wraps an existing directory for a reader (restore, verify,
// inspect): unlike NewOSFS it neither creates dir nor sweeps staging
// files, so it is safe on the directory of a live runtime that is in the
// middle of a publish. A missing directory is an error.
func OpenOSFS(dir string) (*OSFS, error) {
	info, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("ckpt: %s is not a directory", dir)
	}
	return &OSFS{Dir: dir}, nil
}

type osFile struct {
	dir  string
	name string // final file name
	tmp  string // absolute staging path
	f    *os.File
	done bool
}

func (f *osFile) Write(p []byte) (int, error) {
	if f.done {
		return 0, fmt.Errorf("ckpt: write to closed file %q", f.name)
	}
	return f.f.Write(p)
}

// Close publishes the staged content: fsync the temp file, rename it over
// the final name, fsync the directory so the rename itself is durable.
func (f *osFile) Close() error {
	if f.done {
		return nil
	}
	f.done = true
	if err := f.f.Sync(); err != nil {
		f.f.Close()
		os.Remove(f.tmp)
		return fmt.Errorf("ckpt: sync %s: %w", f.name, err)
	}
	if err := f.f.Close(); err != nil {
		os.Remove(f.tmp)
		return fmt.Errorf("ckpt: close %s: %w", f.name, err)
	}
	if err := os.Rename(f.tmp, filepath.Join(f.dir, f.name)); err != nil {
		os.Remove(f.tmp)
		return fmt.Errorf("ckpt: publish %s: %w", f.name, err)
	}
	return syncDir(f.dir)
}

// Abort implements Aborter: the staging file is removed unpublished.
func (f *osFile) Abort() error {
	if f.done {
		return nil
	}
	f.done = true
	f.f.Close()
	return os.Remove(f.tmp)
}

// syncDir fsyncs a directory so a just-renamed entry survives power loss.
// Filesystems that cannot sync directories (returning EINVAL/ENOTSUP) are
// tolerated: the rename is still atomic there, just not durably ordered.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("ckpt: open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil &&
		!errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return fmt.Errorf("ckpt: sync dir: %w", err)
	}
	return nil
}

// Create implements FS: content is staged in a hidden temp file and
// published atomically and durably by Close.
func (o *OSFS) Create(name string) (io.WriteCloser, error) {
	tmp := filepath.Join(o.Dir, fmt.Sprintf("%s%d-%s", tmpPrefix, tmpSeq.Add(1), name))
	f, err := os.Create(tmp)
	if err != nil {
		return nil, err
	}
	return &osFile{dir: o.Dir, name: name, tmp: tmp, f: f}, nil
}

// Open implements FS.
func (o *OSFS) Open(name string) (io.ReadCloser, error) {
	return os.Open(filepath.Join(o.Dir, name))
}

// List implements FS. Unpublished staging files are hidden: until Close
// renames them into place they are not part of the repository.
func (o *OSFS) List() ([]string, error) {
	entries, err := os.ReadDir(o.Dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && !strings.HasPrefix(e.Name(), tmpPrefix) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// Remove implements FS.
func (o *OSFS) Remove(name string) error {
	return os.Remove(filepath.Join(o.Dir, name))
}
