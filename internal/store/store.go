// Package store implements the content-addressed persistent artifact
// store behind the dK topology service: binary graph and profile
// artifacts on disk, named by the SHA-256 content address of their
// canonical edge list (graph.ContentHash), plus an append-only job
// journal that lets the service's async engine recover work across
// restarts.
//
// The paper's workflow is extract-once, generate-many: one dK-profile of
// a large measured topology seeds whole ensembles of dK-random replicas.
// The store makes the expensive half of that durable — a profile computed
// before a restart is fetched from disk after it, never recomputed.
//
// Layout under the data directory:
//
//	graphs/<hex>.dkg          binary graph (varint-delta CSR, see internal/graph)
//	profiles/<hex>.d<D>.dkp   binary dK-profile at depth D (see internal/dk)
//	jobs/journal.jsonl        append-only job journal (see journal.go)
//	jobs/<id>.trace.jsonl     per-job execution trace (see trace.go)
//
// Writes are atomic (temp file + rename), so a crash mid-write leaves at
// worst a *.tmp leftover that GC sweeps; a torn rename is impossible on
// POSIX filesystems. Reads verify the per-artifact CRC-32 and fail with
// graph.ErrCorrupt / dk.ErrCorrupt on damage, which GC uses to
// quarantine bad files.
package store

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dk"
	"repro/internal/graph"
)

// ErrNotFound marks lookups of artifacts the store does not hold.
var ErrNotFound = errors.New("store: artifact not found")

// Store is a content-addressed artifact store rooted at one directory.
// All methods are safe for concurrent use: the filesystem provides the
// shared state, writes are atomic renames, and counters are atomics.
type Store struct {
	dir     string
	journal *Journal

	graphReads, graphWrites     atomic.Int64
	profileReads, profileWrites atomic.Int64
	readErrors                  atomic.Int64

	// Directory-scan results for Stats are cached briefly so a
	// monitoring loop polling /v1/stats does not re-enumerate the
	// artifact directories on every request.
	scanMu  sync.Mutex
	scanAt  time.Time
	scanned scanTotals
}

// scanTotals are the directory-scan half of Stats.
type scanTotals struct {
	graphs, profiles         int
	graphBytes, profileBytes int64
}

// statsScanTTL bounds the staleness of Stats' artifact counts.
const statsScanTTL = 2 * time.Second

// Stats is a snapshot of store contents and lifetime traffic counters.
// Artifact counts and byte totals come from a directory scan; the
// counters accumulate per-process.
type Stats struct {
	Dir           string `json:"dir"`
	Graphs        int    `json:"graphs"`
	Profiles      int    `json:"profiles"`
	GraphBytes    int64  `json:"graph_bytes"`
	ProfileBytes  int64  `json:"profile_bytes"`
	GraphReads    int64  `json:"graph_reads"`
	GraphWrites   int64  `json:"graph_writes"`
	ProfileReads  int64  `json:"profile_reads"`
	ProfileWrites int64  `json:"profile_writes"`
	ReadErrors    int64  `json:"read_errors"`
}

// Open opens (creating if needed) the store rooted at dir, including its
// job journal.
func Open(dir string) (*Store, error) {
	for _, sub := range []string{"graphs", "profiles", "jobs"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	j, err := openJournal(filepath.Join(dir, "jobs", journalName))
	if err != nil {
		return nil, err
	}
	return &Store{dir: dir, journal: j}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Journal returns the store's job journal.
func (s *Store) Journal() *Journal { return s.journal }

// Exclusive reports whether this process owns the data directory's
// journal lock — the single-writer guard a server must hold before
// replaying or appending job records.
func (s *Store) Exclusive() bool { return s.journal.Exclusive() }

// Close releases the journal's file handle. Artifact methods remain
// usable (they open files per call), but journal appends will fail.
func (s *Store) Close() error { return s.journal.Close() }

// Ping probes the store's readiness: the artifact directories must
// still exist and be stat-able. It is deliberately cheap (no I/O beyond
// a stat per subdirectory) — /v1/readyz calls it on every poll.
func (s *Store) Ping() error {
	for _, sub := range []string{"graphs", "profiles", "jobs"} {
		if _, err := os.Stat(filepath.Join(s.dir, sub)); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	return nil
}

// hashHex validates a "sha256:<64 hex>" content address and returns the
// hex part, which is the on-disk artifact name. Validation here is what
// keeps externally supplied hashes from escaping the store directory.
func hashHex(hash string) (string, error) {
	hex, ok := strings.CutPrefix(hash, "sha256:")
	if !ok || len(hex) != 64 {
		return "", fmt.Errorf("store: malformed content hash %q", hash)
	}
	for _, c := range hex {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return "", fmt.Errorf("store: malformed content hash %q", hash)
		}
	}
	return hex, nil
}

func (s *Store) graphPath(hex string) string {
	return filepath.Join(s.dir, "graphs", hex+".dkg")
}

func (s *Store) profilePath(hex string, d int) string {
	return filepath.Join(s.dir, "profiles", fmt.Sprintf("%s.d%d.dkp", hex, d))
}

// atomicWrite writes the output of fill to path via a temp file + rename,
// so concurrent readers and a crash mid-write never observe a partial
// artifact.
func atomicWrite(path string, fill func(w io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := fill(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// PutGraph stores g under its content address. Content-addressed
// artifacts are immutable, so an existing file is left untouched (the
// bytes would be identical) and the write is skipped.
func (s *Store) PutGraph(hash string, g *graph.CSR, labels []int) error {
	hex, err := hashHex(hash)
	if err != nil {
		return err
	}
	path := s.graphPath(hex)
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	if err := atomicWrite(path, func(w io.Writer) error {
		return graph.WriteBinary(w, g, labels)
	}); err != nil {
		return err
	}
	s.graphWrites.Add(1)
	return nil
}

// HasGraph reports whether a graph artifact exists for hash.
func (s *Store) HasGraph(hash string) bool {
	hex, err := hashHex(hash)
	if err != nil {
		return false
	}
	_, err = os.Stat(s.graphPath(hex))
	return err == nil
}

// GetGraph loads the graph stored under hash, verifying its checksum.
// lim bounds the decode; pass graph.ReadLimits{} for a trusted store.
// Returns ErrNotFound if no artifact exists.
func (s *Store) GetGraph(hash string, lim graph.ReadLimits) (*graph.CSR, []int, error) {
	hex, err := hashHex(hash)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.Open(s.graphPath(hex))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil, fmt.Errorf("%w: graph %s", ErrNotFound, hash)
		}
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	g, labels, err := graph.ReadBinaryLimit(f, lim)
	if err != nil {
		s.readErrors.Add(1)
		return nil, nil, fmt.Errorf("store: graph %s: %w", hash, err)
	}
	s.graphReads.Add(1)
	return g, labels, nil
}

// PutProfile stores an extracted profile under its graph's content
// address, one artifact per extraction depth. Like PutGraph, an existing
// artifact at the same depth is left untouched.
func (s *Store) PutProfile(hash string, p *dk.Profile) error {
	hex, err := hashHex(hash)
	if err != nil {
		return err
	}
	path := s.profilePath(hex, p.D)
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	if err := atomicWrite(path, func(w io.Writer) error {
		return dk.WriteProfileBinary(w, p)
	}); err != nil {
		return err
	}
	s.profileWrites.Add(1)
	return nil
}

// GetProfile loads the deepest stored profile of hash with depth >= d,
// verifying its checksum. The inclusion property of the dK-series makes a
// deeper profile answer any shallower request (via Profile.Restrict), so
// depths are probed from 3 down. Returns ErrNotFound if no stored depth
// satisfies d.
func (s *Store) GetProfile(hash string, d int) (*dk.Profile, error) {
	hex, err := hashHex(hash)
	if err != nil {
		return nil, err
	}
	for depth := 3; depth >= d; depth-- {
		f, err := os.Open(s.profilePath(hex, depth))
		if err != nil {
			continue
		}
		p, err := dk.ReadProfileBinary(f)
		f.Close()
		if err != nil {
			// A damaged artifact at one depth must not mask a healthy
			// shallower one; GC is the tool that removes it.
			s.readErrors.Add(1)
			continue
		}
		s.profileReads.Add(1)
		return p, nil
	}
	return nil, fmt.Errorf("%w: profile %s at depth >= %d", ErrNotFound, hash, d)
}

// ProfileDepths lists the depths at which profiles of hash are stored, in
// increasing order, without decoding them.
func (s *Store) ProfileDepths(hash string) []int {
	hex, err := hashHex(hash)
	if err != nil {
		return nil
	}
	var out []int
	for d := 0; d <= 3; d++ {
		if _, err := os.Stat(s.profilePath(hex, d)); err == nil {
			out = append(out, d)
		}
	}
	return out
}

// GraphInfo describes one stored graph artifact for listings.
type GraphInfo struct {
	Hash          string `json:"hash"`
	N             int    `json:"n"`
	M             int    `json:"m"`
	HasLabels     bool   `json:"has_labels"`
	Bytes         int64  `json:"bytes"`
	ProfileDepths []int  `json:"profile_depths,omitempty"`
}

// ListGraphs enumerates stored graphs (sorted by hash) with their header
// summaries and available profile depths. Unreadable or foreign files are
// skipped; GC reports and removes them.
func (s *Store) ListGraphs() ([]GraphInfo, error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, "graphs"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	out := make([]GraphInfo, 0, len(entries))
	for _, e := range entries {
		hex, ok := strings.CutSuffix(e.Name(), ".dkg")
		if !ok || e.IsDir() {
			continue
		}
		hash := "sha256:" + hex
		if _, err := hashHex(hash); err != nil {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		f, err := os.Open(s.graphPath(hex))
		if err != nil {
			continue
		}
		info, err := graph.ReadBinaryInfo(f)
		f.Close()
		if err != nil {
			continue
		}
		out = append(out, GraphInfo{
			Hash: hash, N: info.N, M: info.M, HasLabels: info.HasLabels,
			Bytes: fi.Size(), ProfileDepths: s.ProfileDepths(hash),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Hash < out[j].Hash })
	return out, nil
}

// Stats returns content totals plus the lifetime traffic counters. The
// traffic counters are always fresh; the artifact counts come from a
// directory scan cached for statsScanTTL, so hammering /v1/stats does
// not hammer the filesystem.
func (s *Store) Stats() Stats {
	st := Stats{
		Dir:           s.dir,
		GraphReads:    s.graphReads.Load(),
		GraphWrites:   s.graphWrites.Load(),
		ProfileReads:  s.profileReads.Load(),
		ProfileWrites: s.profileWrites.Load(),
		ReadErrors:    s.readErrors.Load(),
	}
	s.scanMu.Lock()
	if time.Since(s.scanAt) > statsScanTTL {
		scan := func(sub, suffix string) (int, int64) {
			entries, err := os.ReadDir(filepath.Join(s.dir, sub))
			if err != nil {
				return 0, 0
			}
			count, bytes := 0, int64(0)
			for _, e := range entries {
				if e.IsDir() || !strings.HasSuffix(e.Name(), suffix) {
					continue
				}
				if fi, err := e.Info(); err == nil {
					count++
					bytes += fi.Size()
				}
			}
			return count, bytes
		}
		s.scanned.graphs, s.scanned.graphBytes = scan("graphs", ".dkg")
		s.scanned.profiles, s.scanned.profileBytes = scan("profiles", ".dkp")
		s.scanAt = time.Now()
	}
	st.Graphs, st.GraphBytes = s.scanned.graphs, s.scanned.graphBytes
	st.Profiles, st.ProfileBytes = s.scanned.profiles, s.scanned.profileBytes
	s.scanMu.Unlock()
	return st
}

// invalidateScan forces the next Stats call to rescan, used after
// mutations that change artifact counts in bulk.
func (s *Store) invalidateScan() {
	s.scanMu.Lock()
	s.scanAt = time.Time{}
	s.scanMu.Unlock()
}

// GCReport summarizes one garbage-collection sweep.
type GCReport struct {
	TempFiles       int  `json:"temp_files"`     // stale *.tmp leftovers removed
	CorruptGraphs   int  `json:"corrupt_graphs"` // checksum/decode failures removed
	CorruptProfiles int  `json:"corrupt_profiles"`
	OrphanProfiles  int  `json:"orphan_profiles"`           // profiles whose graph is gone
	ForeignFiles    int  `json:"foreign_files"`             // unrecognized names removed
	JournalDropped  int  `json:"journal_dropped"`           // terminal job records compacted away
	JournalSkipped  bool `json:"journal_skipped,omitempty"` // compaction refused: journal owned by a live server
}

// gcTmpAge is how old a *.tmp file must be before GC treats it as an
// interrupted-write leftover. A fresh temp file may be an atomicWrite
// in flight in a live server; deleting it would fail that write.
const gcTmpAge = 10 * time.Minute

// GC sweeps the store: interrupted-write temp files (older than
// gcTmpAge, so in-flight writes of a live server are spared) and files
// with unrecognized names are removed, every artifact is decoded
// end-to-end and deleted if its checksum or structure fails, profiles
// whose graph artifact is missing are dropped, and the job journal is
// compacted down to its non-terminal records. Content-addressed
// artifacts are immutable and self-contained, so GC never needs a
// reference count — an artifact is garbage only if it is damaged or
// orphaned.
func (s *Store) GC() (GCReport, error) {
	var rep GCReport
	staleTmp := func(e os.DirEntry) bool {
		fi, err := e.Info()
		return err == nil && time.Since(fi.ModTime()) > gcTmpAge
	}
	sweep := func(sub, suffix string, check func(path, name string) (remove bool, corrupt *int)) error {
		dir := filepath.Join(s.dir, sub)
		entries, err := os.ReadDir(dir)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			path := filepath.Join(dir, e.Name())
			if strings.HasSuffix(e.Name(), ".tmp") {
				if staleTmp(e) && os.Remove(path) == nil {
					rep.TempFiles++
				}
				continue
			}
			if !strings.HasSuffix(e.Name(), suffix) {
				if os.Remove(path) == nil {
					rep.ForeignFiles++
				}
				continue
			}
			remove, counter := check(path, e.Name())
			if remove && os.Remove(path) == nil && counter != nil {
				*counter++
			}
		}
		return nil
	}
	err := sweep("graphs", ".dkg", func(path, name string) (bool, *int) {
		hex, _ := strings.CutSuffix(name, ".dkg")
		if _, err := hashHex("sha256:" + hex); err != nil {
			return true, &rep.ForeignFiles
		}
		f, err := os.Open(path)
		if err != nil {
			return false, nil
		}
		_, _, err = graph.ReadBinary(f)
		f.Close()
		return err != nil, &rep.CorruptGraphs
	})
	if err != nil {
		return rep, err
	}
	// The jobs directory holds the journal, per-job trace files
	// (bounded by PruneTraces, never swept here) and — after a crash
	// during compaction — temp leftovers; sweep only the latter.
	if entries, err := os.ReadDir(filepath.Join(s.dir, "jobs")); err == nil {
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".tmp") && staleTmp(e) {
				if os.Remove(filepath.Join(s.dir, "jobs", e.Name())) == nil {
					rep.TempFiles++
				}
			}
		}
	}
	err = sweep("profiles", ".dkp", func(path, name string) (bool, *int) {
		base, _ := strings.CutSuffix(name, ".dkp")
		hex, depth, ok := strings.Cut(base, ".d")
		if !ok || len(depth) != 1 || depth[0] < '0' || depth[0] > '3' {
			return true, &rep.ForeignFiles
		}
		if _, err := hashHex("sha256:" + hex); err != nil {
			return true, &rep.ForeignFiles
		}
		if _, err := os.Stat(s.graphPath(hex)); err != nil {
			return true, &rep.OrphanProfiles
		}
		f, err := os.Open(path)
		if err != nil {
			return false, nil
		}
		_, err = dk.ReadProfileBinary(f)
		f.Close()
		return err != nil, &rep.CorruptProfiles
	})
	if err != nil {
		return rep, err
	}
	s.invalidateScan()
	dropped, err := s.journal.Compact()
	rep.JournalDropped = dropped
	if errors.Is(err, ErrJournalLocked) {
		// A live server owns the journal; its compaction happens at that
		// server's next startup. The artifact sweep above still counts
		// as a successful GC.
		rep.JournalSkipped = true
		err = nil
	}
	return rep, err
}
