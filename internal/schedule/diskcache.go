package schedule

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/sim"
)

// DefaultCacheDir is the conventional on-disk cache location that
// cmd/paperfig offers via -cache-dir.
const DefaultCacheDir = ".simcache"

// segEntry is one cached result, stored as a single JSON line in a segment
// file. Schema and Key are stored redundantly (the directory already
// encodes the schema) so a line copied between segments by hand still
// self-identifies, and Names/budgets make the files meaningful to humans
// and artifact tooling.
type segEntry struct {
	Schema  string     `json:"schema"`
	Key     string     `json:"key"`
	Segment string     `json:"segment"`
	Names   []string   `json:"names"`
	Warmup  uint64     `json:"warmup"`
	Measure uint64     `json:"measure"`
	Result  sim.Result `json:"result"`
}

// diskCache is the optional on-disk log behind the scheduler's result map:
// one append-only segment file per study (Job.Segment) instead of one JSON
// file per job, so a 128-core -fig 8 grid leaves a handful of segments
// behind, not thousands of inodes.
//
// Writes are single O_APPEND line writes (atomic for our line sizes on
// POSIX), so concurrent writers — even from separate processes sharing a
// cache dir — interleave whole lines. Nothing else ever rewrites or
// removes a segment; readSegments loads them when the dir is opened.
type diskCache struct {
	dir string // schema-qualified root, e.g. .simcache/job-v5+sim-config-v1
}

// schemaSlug makes KeySchema filesystem-safe.
func schemaSlug() string {
	return strings.NewReplacer("/", "-", "\x00", "-").Replace(KeySchema)
}

// segmentSlug makes a Job.Segment filesystem-safe; empty segments pool in
// "misc".
func segmentSlug(segment string) string {
	if segment == "" {
		segment = "misc"
	}
	var b strings.Builder
	for _, r := range segment {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func newDiskCache(root string) (*diskCache, error) {
	dir := filepath.Join(root, schemaSlug())
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("schedule: cache dir: %w", err)
	}
	return &diskCache{dir: dir}, nil
}

// readSegments passes every usable line of the segment files in dir to
// add and returns how many lines it skipped. Unusable lines — torn
// appends, stale schemas, hand-edited garbage — are skipped, never fatal:
// the cache is best-effort by contract. A key may appear on several lines
// (two processes that executed the same job each append it); the results
// are identical, so add may keep any one of them.
func readSegments(dir string, add func(key string, r sim.Result)) (skipped uint64, err error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		return 0, fmt.Errorf("schedule: scan cache dir: %w", err)
	}
	for _, path := range matches {
		f, err := os.Open(path)
		if err != nil {
			skipped++
			continue
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			var e segEntry
			if json.Unmarshal(line, &e) != nil || e.Schema != KeySchema || e.Key == "" {
				skipped++
				continue
			}
			add(e.Key, e.Result)
		}
		if sc.Err() != nil {
			skipped++
		}
		f.Close()
	}
	return skipped, nil
}

// write appends the entry to its segment file as one JSON line. The
// open-append-close per write keeps no fds captive between runs; one
// append per executed simulation is noise next to the simulation.
func (d *diskCache) write(key string, j Job, r sim.Result) error {
	e := segEntry{
		Schema:  KeySchema,
		Key:     key,
		Segment: j.Segment,
		Names:   j.Names,
		Warmup:  j.Warmup,
		Measure: j.Measure,
		Result:  r,
	}
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	data = append(data, '\n')

	path := filepath.Join(d.dir, segmentSlug(j.Segment)+".seg")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(data)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
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
