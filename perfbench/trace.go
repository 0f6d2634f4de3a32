package main

import (
	"encoding/json"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/storage"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Spans of one statement share Req; a statement's root span
// has Parent -1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. One goroutine uses it.
type tracer struct {
	t0    time.Time
	spans []span
	req   int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// root opens a statement's root span under a fresh request id.
func (t *tracer) root(name string) int {
	t.req++
	return t.open(name, -1, t.req)
}

// child opens a span under parent, in parent's request.
func (t *tracer) child(parent int, name string) int {
	return t.open(name, parent, t.spans[parent].Req)
}

func (t *tracer) open(name string, parent int, req int64) int {
	now := time.Since(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name, Start: now})
	return len(t.spans) - 1
}

// close ends span id and returns its duration in nanoseconds.
func (t *tracer) close(id int) int64 {
	now := time.Since(t.t0).Nanoseconds()
	t.spans[id].End = now
	return now - t.spans[id].Start
}

// breakdown sums, over every root span named in roots, the self time of
// each layer (a span's duration minus its children's; the layer is the
// span name up to its first dot) and the roots' own unattributed time.
func (t *tracer) breakdown(roots map[string]bool) (self map[string]int64, unattributed, total int64) {
	childSum := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childSum[s.Parent] += s.End - s.Start
		}
	}
	// A span counts when its root is one of the requested statements.
	rootOf := make([]int, len(t.spans))
	for i, s := range t.spans {
		rootOf[i] = i
		if s.Parent >= 0 {
			rootOf[i] = rootOf[s.Parent]
		}
	}
	self = make(map[string]int64)
	for i, s := range t.spans {
		if !roots[t.spans[rootOf[i]].Name] {
			continue
		}
		own := s.End - s.Start - childSum[i]
		if s.Parent < 0 {
			unattributed += own
			total += s.End - s.Start
			continue
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		self[layer] += own
	}
	return self, unattributed, total
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// countFS wraps the real file system and counts what the storage engine
// asks of it: fsyncs (file and directory) and bytes written.
type countFS struct {
	storage.FS
	syncs      atomic.Int64
	writeBytes atomic.Int64
}

func newCountFS() *countFS { return &countFS{FS: storage.OsFS{}} }

func (c *countFS) OpenFile(path string, flag int, perm os.FileMode) (storage.File, error) {
	f, err := c.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c}, nil
}

func (c *countFS) SyncDir(dir string) error {
	c.syncs.Add(1)
	return c.FS.SyncDir(dir)
}

// snapshot returns the fsync and written-byte totals so far.
func (c *countFS) snapshot() (syncs, bytes int64) { return c.syncs.Load(), c.writeBytes.Load() }

type countFile struct {
	storage.File
	fs *countFS
}

func (f *countFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.fs.writeBytes.Add(int64(n))
	return n, err
}

func (f *countFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}
