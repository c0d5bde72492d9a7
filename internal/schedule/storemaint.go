package schedule

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// StoreReport summarises one MaintainStore pass over a cache root.
type StoreReport struct {
	// SchemasEvicted lists stale job/v* schema directories removed.
	SchemasEvicted []string `json:"schemas_evicted,omitempty"`
	// SegmentsCompacted counts segment files rewritten to drop duplicate
	// or unusable lines; LinesDropped counts the lines removed.
	SegmentsCompacted int    `json:"segments_compacted"`
	LinesDropped      uint64 `json:"lines_dropped"`
	// SegmentsEvicted counts whole segment files removed by the size cap
	// (oldest first).
	SegmentsEvicted int `json:"segments_evicted"`
	// BytesBefore / BytesAfter are the current-schema store size around
	// the pass.
	BytesBefore int64 `json:"bytes_before"`
	BytesAfter  int64 `json:"bytes_after"`
}

// String renders a one-line summary for logs.
func (r StoreReport) String() string {
	return fmt.Sprintf("schemas-evicted=%d segments-compacted=%d lines-dropped=%d segments-evicted=%d bytes=%d->%d",
		len(r.SchemasEvicted), r.SegmentsCompacted, r.LinesDropped, r.SegmentsEvicted, r.BytesBefore, r.BytesAfter)
}

// MaintainStore grooms a disk-cache root (the directory handed to
// SetCacheDir) in three passes:
//
//  1. Schema eviction: sibling job/v* directories left behind by older key
//     schemas are removed — their entries can never be served again, they
//     only cost disk.
//  2. Compaction: each current-schema segment file is rewritten (atomic
//     temp + rename) keeping the last entry per key; duplicate-key lines
//     (processes sharing a cache dir that each executed the same job) and
//     unusable lines (torn appends, hand-edited garbage) are dropped.
//  3. Size cap: if maxBytes > 0 and the current-schema store still
//     exceeds it, whole segment files are evicted oldest-modification
//     first until it fits.
//
// The cache is best-effort by contract, so maintenance racing a concurrent
// appender can at worst drop a freshly-appended line — a re-executable
// cache entry, never an answer. paperfigd is the conventional owner: it
// runs one pass at startup, before opening the cache via SetCacheDir.
func MaintainStore(root string, maxBytes int64) (StoreReport, error) {
	var rep StoreReport
	if _, err := os.Stat(root); os.IsNotExist(err) {
		return rep, nil
	}

	// Pass 1: evict stale schema directories.
	entries, err := os.ReadDir(root)
	if err != nil {
		return rep, fmt.Errorf("schedule: maintain store: %w", err)
	}
	current := schemaSlug()
	for _, e := range entries {
		if !e.IsDir() || e.Name() == current || !strings.HasPrefix(e.Name(), "job-v") {
			continue
		}
		if err := os.RemoveAll(filepath.Join(root, e.Name())); err != nil {
			return rep, fmt.Errorf("schedule: evict stale schema %s: %w", e.Name(), err)
		}
		rep.SchemasEvicted = append(rep.SchemasEvicted, e.Name())
	}

	dir := filepath.Join(root, current)
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		return rep, fmt.Errorf("schedule: maintain store: %w", err)
	}
	sort.Strings(segs)
	rep.BytesBefore = StoreBytes(root)

	// Pass 2: compact duplicate-key and unusable lines per segment.
	for _, path := range segs {
		compacted, dropped, err := compactSegment(path)
		if err != nil {
			return rep, err
		}
		if compacted {
			rep.SegmentsCompacted++
			rep.LinesDropped += dropped
		}
	}

	// Pass 3: size cap, oldest segments first.
	if maxBytes > 0 {
		type segInfo struct {
			path  string
			size  int64
			mtime int64
		}
		var infos []segInfo
		var total int64
		for _, path := range segs {
			st, err := os.Stat(path)
			if err != nil {
				continue // already evicted or racing; skip
			}
			infos = append(infos, segInfo{path, st.Size(), st.ModTime().UnixNano()})
			total += st.Size()
		}
		sort.Slice(infos, func(i, j int) bool { return infos[i].mtime < infos[j].mtime })
		for _, info := range infos {
			if total <= maxBytes {
				break
			}
			if err := os.Remove(info.path); err != nil {
				return rep, fmt.Errorf("schedule: evict segment: %w", err)
			}
			total -= info.size
			rep.SegmentsEvicted++
		}
	}

	rep.BytesAfter = StoreBytes(root)
	return rep, nil
}

// StoreBytes returns the size on disk of the current-schema segment files
// under a cache root (the directory handed to SetCacheDir). Segments of
// other schemas, and files outside the current schema's directory, do not
// count.
func StoreBytes(root string) int64 {
	segs, _ := filepath.Glob(filepath.Join(root, schemaSlug(), "*.seg"))
	var n int64
	for _, p := range segs {
		if st, err := os.Stat(p); err == nil {
			n += st.Size()
		}
	}
	return n
}

// compactSegment rewrites one segment keeping the last valid entry per
// key, in first-appearance key order. It reports whether a rewrite
// happened and how many lines were dropped; a segment with nothing to
// drop is left untouched (no rewrite, no mtime churn).
func compactSegment(path string) (bool, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, 0, fmt.Errorf("schedule: compact: %w", err)
	}
	var (
		order   []string
		latest  = map[string][]byte{}
		total   uint64
		dropped uint64
	)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		total++
		var e segEntry
		if json.Unmarshal(line, &e) != nil || e.Schema != KeySchema || e.Key == "" {
			dropped++
			continue
		}
		if _, seen := latest[e.Key]; !seen {
			order = append(order, e.Key)
		} else {
			dropped++
		}
		latest[e.Key] = append([]byte(nil), line...)
	}
	scanErr := sc.Err()
	f.Close()
	if scanErr != nil {
		// An unreadable tail: count what we could not parse and rewrite
		// the readable prefix.
		dropped++
	}
	if dropped == 0 {
		return false, 0, nil
	}

	var buf bytes.Buffer
	for _, key := range order {
		buf.Write(latest[key])
		buf.WriteByte('\n')
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".compact*")
	if err != nil {
		return false, 0, fmt.Errorf("schedule: compact: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		return false, 0, fmt.Errorf("schedule: compact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return false, 0, fmt.Errorf("schedule: compact: %w", err)
	}
	if len(order) == 0 {
		// Nothing valid survived: drop the segment entirely.
		if err := os.Remove(path); err != nil {
			return false, 0, fmt.Errorf("schedule: compact: %w", err)
		}
		return true, dropped, nil
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return false, 0, fmt.Errorf("schedule: compact: %w", err)
	}
	return true, dropped, nil
}
