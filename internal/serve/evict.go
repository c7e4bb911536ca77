package serve

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// evictPass enforces the cache bounds (Config.CacheMaxBytes and
// CacheMaxRuns): least-recently-used run files are removed until both
// bounds hold, and each removed run's held decoded copy goes with it.
// Recency is file mtime — every request that uses a run refreshes it
// (touch and cachedBytes), including queries answered from a held
// copy, so mtime order IS access order without depending on the
// filesystem's atime behavior (relatime mounts make atime useless for
// LRU). The pass runs at startup and after every save; it also keeps
// the cache_bytes/cache_runs gauges current, bounds or not.
func (s *Server) evictPass() {
	s.evictMu.Lock()
	defer s.evictMu.Unlock()
	type cacheFile struct {
		path  string
		size  int64
		mtime time.Time
	}
	ents, err := os.ReadDir(s.cfg.CacheDir)
	if err != nil {
		s.log.Warn("eviction pass cannot list cache", "err", err)
		return
	}
	var files []cacheFile
	var total int64
	for _, e := range ents {
		name := e.Name()
		// Only stored runs are evictable: the journal (*.jsonl) and
		// in-flight atomic-write temporaries (*.tmp) don't match.
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, cacheFile{filepath.Join(s.cfg.CacheDir, name), fi.Size(), fi.ModTime()})
		total += fi.Size()
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
	runs := len(files)
	over := func() bool {
		return (s.cfg.CacheMaxBytes > 0 && total > s.cfg.CacheMaxBytes) ||
			(s.cfg.CacheMaxRuns > 0 && runs > s.cfg.CacheMaxRuns)
	}
	for i := 0; i < len(files) && over(); i++ {
		f := files[i]
		if err := os.Remove(f.path); err != nil {
			s.log.Warn("eviction failed", "file", f.path, "err", err)
			continue
		}
		s.held.drop(strings.TrimSuffix(filepath.Base(f.path), ".json"))
		total -= f.size
		runs--
		s.metrics.evictions.Inc()
		s.log.Info("cache evicted", "file", filepath.Base(f.path), "bytes", f.size)
	}
	s.cacheBytes.Store(total)
	s.cacheRuns.Store(int64(runs))
}
