// Package results is the persistent run store of the evaluation: it
// saves an experiment run — its typed metrics.Tables plus the metadata
// needed to reproduce it — to a JSON file, loads it back, and
// structurally diffs two runs with per-column tolerances. Multi-axis
// runs additionally record their sweep dimensions (Meta.Axes), which
// the query layer (query.go) exploits: Slice keeps one plane of the
// axis space, Project collapses onto an axis subset, and ComparePlanes
// diffs two runs over the same plane. It is the machine-readable
// interface every downstream consumer (CI regression gates,
// dashboards, paper-scale result caches) builds on: quick CI runs diff
// against stored full-scale (-scale 1000) baselines without
// re-simulating them.
package results

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"lockin/internal/metrics"
	"lockin/internal/sweep"
)

// Meta records how a run was produced. Together with the simulator's
// determinism contract it pins the output: the same experiment, seed,
// scale, quick flag and code version reproduce the same tables for any
// worker count or cell-range split.
type Meta struct {
	// Experiment is the experiment id ("fig11", "tbl2",
	// "scenario:kyoto", ...).
	Experiment string  `json:"experiment"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Quick      bool    `json:"quick"`
	// Workers is informational: results are identical for any value.
	Workers int `json:"workers"`
	// ShardIndex/ShardCount are decode-only: runs stored before cell
	// ranges became the only partition recorded a shard i/n here.
	// Decode folds them into Range as [i, i+1) of total n and zeroes
	// them; no producer sets them.
	ShardIndex int `json:"shard_index,omitempty"`
	ShardCount int `json:"shard_count,omitempty"`
	// Range is non-nil when the run holds one contiguous cell range of
	// a grid (see sweep.Options RangeLo/RangeHi/RangeTotal): -shard and
	// -cells runs and the chunks fleet workers post back carry it, and
	// Merge reassembles any disjoint set of ranges tiling [0, Total)
	// into the full run.
	Range *CellRange `json:"cell_range,omitempty"`
	// SpecHash is the content hash of the declarative scenario spec the
	// run was compiled from (empty for built-in experiments). Two runs
	// with different non-empty hashes measured different workloads, so
	// Compare and Merge refuse to relate them.
	SpecHash string `json:"spec_hash,omitempty"`
	// Axes records the run's sweep dimensions with their typed values,
	// in nesting order (outermost first): table rows enumerate as the
	// cross product of these axes, last axis fastest. Note this is ROW
	// order, not column order — axis values also appear as table
	// columns, but those are matched by header name ("threads",
	// "read%", ...), and the threads/cs columns render even when no
	// such axis is declared. Empty for experiments with hand-coded
	// grids. Merge refuses shards whose axes disagree.
	Axes []sweep.Axis `json:"axes,omitempty"`
	// Query records the axis queries (slice/project) applied to a
	// stored full run, e.g. "slice read=90". Empty for runs saved as
	// produced. It both documents provenance and keeps a queried run's
	// file name (see Filename) distinct from the full run's, so saving
	// a sliced plane into a store directory can never silently
	// overwrite the expensive full baseline it was cut from.
	Query string `json:"query,omitempty"`
	// Perf records how the run was produced in wall-clock terms
	// (provenance, not results): elapsed time, cell throughput and the
	// host that simulated it. It is deliberately excluded from run
	// identity — CacheKey ignores it, Merge drops it, and byte-level
	// comparisons of run content go through scripts/runcmp, which nils
	// it on both sides.
	Perf *Perf `json:"perf,omitempty"`
	// Version is the git-describable build version (see Version).
	Version string `json:"version"`
}

// CellRange is the half-open cell interval [Lo, Hi) of Total a partial
// run covers, in generalized shard coordinates: a grid of n cells
// executed exactly the indexes [n·Lo/Total, n·Hi/Total). With Total
// equal to the grid size the coordinates are literal cell indexes. A
// shard i/n is the range [i, i+1) of total n.
type CellRange struct {
	Lo    int `json:"lo"`
	Hi    int `json:"hi"`
	Total int `json:"total"`
}

// Covers reports whether the range spans the whole grid.
func (r CellRange) Covers() bool { return r.Lo == 0 && r.Hi == r.Total }

func (r CellRange) String() string { return fmt.Sprintf("[%d,%d)/%d", r.Lo, r.Hi, r.Total) }

// Perf is wall-clock provenance of one run: what it cost to produce,
// never what it measured. Two runs with identical tables and different
// Perf are the same run.
type Perf struct {
	// WallMS is the elapsed wall-clock time of the simulation, in
	// milliseconds.
	WallMS float64 `json:"wall_ms"`
	// Cells is how many grid cells the run simulated.
	Cells int `json:"cells"`
	// CellsPerSec is Cells divided by the wall time.
	CellsPerSec float64 `json:"cells_per_sec"`
	// Host describes the producing machine: GOOS/GOARCH, CPU count and
	// Go version.
	Host string `json:"host"`
}

// NewPerf builds run provenance from an elapsed wall time and a cell
// count. Values are rounded so the JSON stays readable.
func NewPerf(wall time.Duration, cells int) *Perf {
	p := &Perf{
		WallMS: math.Round(wall.Seconds()*1e6) / 1e3,
		Cells:  cells,
		Host: fmt.Sprintf("%s/%s cpus=%d %s",
			runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.Version()),
	}
	if wall > 0 {
		p.CellsPerSec = math.Round(float64(cells)/wall.Seconds()*10) / 10
	}
	return p
}

// Run is one persisted experiment run.
type Run struct {
	Meta   Meta             `json:"meta"`
	Tables []*metrics.Table `json:"tables"`
}

// Filename returns the file a run saves to under a store directory.
// Experiment ids with path-hostile characters (the ':' of scenario:*)
// are sanitized, so every id maps to a portable file name.
func (m Meta) Filename() string {
	name := m.Experiment
	if name == "" {
		name = "run"
	}
	name = strings.NewReplacer(":", "-", "/", "-").Replace(name)
	// A partial range run must never land on the full run's file name:
	// saving a leased chunk into a store directory cannot silently
	// overwrite the merged baseline it contributes to.
	if m.Range != nil && !m.Range.Covers() {
		name = fmt.Sprintf("%s.cells%d-%d-of-%d", name, m.Range.Lo, m.Range.Hi, m.Range.Total)
	}
	if m.Query != "" {
		name += "." + sanitizeName(m.Query)
	}
	return name + ".json"
}

// sanitizeName maps a query description onto portable file-name
// characters.
func sanitizeName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		default:
			return '-'
		}
	}, s)
}

// Encode renders a run exactly as Save writes it — the one byte
// encoding of a stored run. Every producer (the CLI store, the HTTP
// service's run cache and query endpoints) shares it, so "the same
// run" always means "the same bytes" and cross-producer comparisons
// can use cmp instead of a structural diff. The encoding is
// deterministic: encoding the same run twice produces the same bytes.
func Encode(r *Run) ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("results: encode %s: %w", r.Meta.Experiment, err)
	}
	return append(b, '\n'), nil
}

// Save writes the run to <dir>/<experiment>.json (creating dir) and
// returns the path. The write is crash-atomic (WriteAtomic): a crash or
// a full disk leaves the previous file intact, never a truncated one.
func Save(dir string, r *Run) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("results: create store %s: %w", dir, err)
	}
	b, err := Encode(r)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, r.Meta.Filename())
	if err := WriteAtomic(path, b); err != nil {
		return "", fmt.Errorf("results: write %s: %w", path, err)
	}
	return path, nil
}

// WriteAtomic replaces path with b: it writes a temp file next to path
// and renames it over the target, removing the temp file on failure.
// Readers see the old bytes or the new ones, never a mix — a reader
// that opened the old file keeps reading it in full. There is no
// fsync: this guards against torn files, not against power loss.
func WriteAtomic(path string, b []byte) error {
	tmp := path + ".tmp"
	err := os.WriteFile(tmp, b, 0o644)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp) // best effort; the write error is the one to report
	}
	return err
}

// Load reads one run file.
func Load(path string) (*Run, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("results: read %s: %w", path, err)
	}
	r, err := Decode(b)
	if err != nil {
		return nil, fmt.Errorf("results: decode %s: %w", path, err)
	}
	return r, nil
}

// Decode parses Encode's bytes back into a run — the wire form fleet
// workers POST their leased chunks in. A shard i/n recorded by an older
// store comes back as the cell range [i, i+1) of total n.
func Decode(b []byte) (*Run, error) {
	var r Run
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, err
	}
	// A JSON null in the table list decodes without error but every
	// consumer (String, Diff, the query layer) assumes non-nil tables.
	for i, t := range r.Tables {
		if t == nil {
			return nil, fmt.Errorf("table %d is null", i)
		}
	}
	r.Meta.foldShard()
	return &r, nil
}

// foldShard turns the shard i/n an older store recorded into the cell
// range [i, i+1) of total n, and zeroes the shard fields.
func (m *Meta) foldShard() {
	if m.ShardCount > 1 && m.Range == nil {
		m.Range = &CellRange{Lo: m.ShardIndex, Hi: m.ShardIndex + 1, Total: m.ShardCount}
	}
	m.ShardIndex, m.ShardCount = 0, 0
}

// LoadExperiment reads the stored run of one experiment from a store
// directory (the file Save writes for an unsharded run). Its failure
// modes are deliberately distinct: a store directory that does not
// exist at all is a different mistake (a mistyped path, a baseline
// never saved) than a store that exists but holds no run for this
// experiment, and each gets an actionable message.
func LoadExperiment(dir, experiment string) (*Run, error) {
	fi, err := os.Stat(dir)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return nil, fmt.Errorf("results: store directory %s does not exist — save a baseline there first with -json %s (to compare against a single run file, pass its .json path instead)", dir, dir)
	case err != nil:
		return nil, fmt.Errorf("results: store %s: %w", dir, err)
	case !fi.IsDir():
		return nil, fmt.Errorf("results: %s is not a store directory (run files are addressed by their .json path)", dir)
	}
	path := filepath.Join(dir, Meta{Experiment: experiment}.Filename())
	if _, err := os.Stat(path); errors.Is(err, fs.ErrNotExist) {
		ids, lerr := List(dir)
		switch {
		case lerr == nil && len(ids) == 0:
			return nil, fmt.Errorf("results: no stored run for experiment %s: store %s is empty — save one with -json %s", experiment, dir, dir)
		case lerr == nil:
			return nil, fmt.Errorf("results: no stored run for experiment %s in %s (stored: %s)", experiment, dir, strings.Join(ids, ", "))
		}
		return nil, fmt.Errorf("results: no stored run for experiment %s in %s", experiment, dir)
	}
	return Load(path)
}

// CacheKey returns the content-addressed identity of the run this
// metadata describes: a sanitized experiment slug (for humans reading
// the cache directory) plus 16 hex digits hashed from the workload
// identity — the spec content hash when the run was compiled from a
// scenario spec, else the experiment id — and the options that change
// the produced bytes: seed, scale, quick. Workers and cell ranges are
// deliberately excluded: the determinism contract makes them
// output-neutral, so two requests differing only there must hit the
// same cache entry. The benchmark service dedupes submissions on this
// key, which is why a scenario spec POSTed by content and the same
// bundled spec named by id collapse onto one cached run.
func (m Meta) CacheKey() string {
	workload := m.SpecHash
	if workload == "" {
		workload = m.Experiment
	}
	sum := sha256.Sum256(fmt.Appendf(nil, "%s|seed=%d|scale=%g|quick=%t", workload, m.Seed, m.Scale, m.Quick))
	slug := strings.TrimSuffix(Meta{Experiment: m.Experiment}.Filename(), ".json")
	return fmt.Sprintf("%s-%x", slug, sum[:8])
}

// Stored is one run file of a store directory, as listed by
// ListStored: the addressable key (file name without .json), the file
// path, and the run's metadata.
type Stored struct {
	Key  string `json:"key"`
	File string `json:"file"`
	Meta Meta   `json:"meta"`
}

// ListStored reads the metadata of every run file in a store
// directory, sorted by key. Unlike List it reads the files, so
// consumers (the service's run listing) get seeds, scales, axes and
// spec hashes, not just names. It decodes only the metadata, as Decode
// reads it; the rest of a file is checked to be JSON but not decoded.
// A file that vanishes between the listing and its read (the service
// evicts runs while it serves) is skipped; any other failure to read
// one, or malformed JSON, fails the listing.
func ListStored(dir string) ([]Stored, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("results: list store %s: %w", dir, err)
	}
	var out []Stored
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		path := filepath.Join(dir, name)
		b, err := os.ReadFile(path)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("results: read %s: %w", path, err)
		}
		var head struct {
			Meta Meta `json:"meta"`
		}
		if err := json.Unmarshal(b, &head); err != nil {
			return nil, fmt.Errorf("results: decode %s: %w", path, err)
		}
		head.Meta.foldShard()
		out = append(out, Stored{Key: strings.TrimSuffix(name, ".json"), File: path, Meta: head.Meta})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// List returns the experiment ids with a full (whole-range) run stored
// in dir, sorted. Partial runs are skipped by name: .cells parts, and
// the .shard parts older stores hold.
func List(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("results: list store %s: %w", dir, err)
	}
	var ids []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") ||
			strings.Contains(name, ".shard") || strings.Contains(name, ".cells") {
			continue
		}
		ids = append(ids, strings.TrimSuffix(name, ".json"))
	}
	sort.Strings(ids)
	return ids, nil
}

// Version returns a git-describable build version: the VCS revision
// (12 hex digits, "-dirty" when the tree was modified) when the binary
// was built inside a repository, "dev" otherwise.
func Version() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "dev"
	}
	var rev string
	dirty := false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "dev"
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// Merge reassembles a full run from its cell-range parts — -shard and
// -cells runs, fleet lease chunks, shards from older stores (Decode
// turns them into ranges), or any mix — in any order. Parts must agree
// on experiment, seed, scale, quick, spec hash and axes, carry the
// same table set (titles, headers, notes), and their cell ranges must
// tile [0, Total) exactly: no gaps, no overlaps, one shared Total.
// Because the sweep engine executes contiguous index ranges and never
// re-seeds the surviving cells, concatenating the parts' rows in range
// order reproduces the unsharded run byte-for-byte.
func Merge(parts ...*Run) (*Run, error) {
	merged, err := MergeRanges(parts...)
	if err != nil {
		return nil, err
	}
	if r := merged.Meta.Range; r != nil {
		return nil, fmt.Errorf("results: %s: merged parts cover only cells %s — the rest of [0,%d) is missing",
			merged.Meta.Experiment, r, r.Total)
	}
	return merged, nil
}

// rangeOf reads and checks a partial run's cell range. A run without
// one is not partial.
func rangeOf(m Meta) (CellRange, error) {
	if m.Range == nil {
		return CellRange{}, fmt.Errorf("results: %s is not a partial run (no cell-range metadata)", m.Experiment)
	}
	cr := *m.Range
	if cr.Total < 1 || cr.Lo < 0 || cr.Hi < cr.Lo || cr.Hi > cr.Total {
		return cr, fmt.Errorf("results: %s: bad cell range %s", m.Experiment, cr)
	}
	return cr, nil
}

// MergeRanges merges partial runs whose cell ranges are contiguous
// into one run covering their union — the coordinator's
// merge-on-arrival building block. The merged run's Meta.Range is the
// combined interval (still mergeable with later arrivals); a union
// covering the whole grid comes back with Range cleared, i.e. as the
// full run. Merge is MergeRanges plus the full-coverage requirement.
func MergeRanges(parts ...*Run) (*Run, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("results: merge of zero parts")
	}
	type part struct {
		r  *Run
		cr CellRange
	}
	ordered := make([]part, 0, len(parts))
	for _, r := range parts {
		cr, err := rangeOf(r.Meta)
		if err != nil {
			return nil, err
		}
		ordered = append(ordered, part{r: r, cr: cr})
	}
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].cr.Lo < ordered[j].cr.Lo })

	first := ordered[0]
	fm := first.r.Meta
	merged := &Run{Meta: fm}
	// Provenance is per-producing-process; a merged run was produced by
	// several, so it carries none.
	merged.Meta.Perf = nil
	covered := first.cr
	for i, p := range ordered {
		m := p.r.Meta
		if m.Experiment != fm.Experiment || m.Seed != fm.Seed ||
			m.Scale != fm.Scale || m.Quick != fm.Quick {
			return nil, fmt.Errorf("results: cells %s of %s were produced under different options than cells %s",
				p.cr, fm.Experiment, first.cr)
		}
		if m.SpecHash != fm.SpecHash {
			return nil, fmt.Errorf("results: cells %s of %s ran spec revision %s, cells %s ran %s — regenerate the parts from one spec",
				p.cr, fm.Experiment, orNone(m.SpecHash), first.cr, orNone(fm.SpecHash))
		}
		if !sweep.AxesEqual(m.Axes, fm.Axes) {
			return nil, fmt.Errorf("results: cells %s of %s swept different axes than cells %s — regenerate the parts from one spec",
				p.cr, fm.Experiment, first.cr)
		}
		if p.cr.Total != covered.Total {
			return nil, fmt.Errorf("results: %s: cells %s and %s use different range totals — regenerate the parts from one grid split",
				fm.Experiment, first.cr, p.cr)
		}
		if i > 0 {
			prev := ordered[i-1].cr
			switch {
			case p.cr.Lo < prev.Hi:
				return nil, fmt.Errorf("results: %s: cells %s overlap cells %s",
					fm.Experiment, p.cr, prev)
			case p.cr.Lo > prev.Hi:
				return nil, fmt.Errorf("results: %s: cells [%d,%d) are missing between %s and %s",
					fm.Experiment, prev.Hi, p.cr.Lo, prev, p.cr)
			}
			covered.Hi = p.cr.Hi
		}
		if len(p.r.Tables) != len(first.r.Tables) {
			return nil, fmt.Errorf("results: cells %s of %s have %d tables, cells %s have %d",
				p.cr, fm.Experiment, len(p.r.Tables), first.cr, len(first.r.Tables))
		}
		for ti, tab := range p.r.Tables {
			base := first.r.Tables[ti]
			if tab.Title != base.Title || !equalStrings(tab.Header, base.Header) ||
				!equalStrings(tab.Notes, base.Notes) {
				return nil, fmt.Errorf("results: cells %s of %s: table %q does not line up with %q",
					p.cr, fm.Experiment, tab.Title, base.Title)
			}
			if i == 0 {
				nt := metrics.NewTable(base.Title, base.Header...)
				for _, n := range base.Notes {
					nt.AddNote("%s", n)
				}
				merged.Tables = append(merged.Tables, nt)
			}
			for _, row := range tab.Cells() {
				merged.Tables[ti].AddValues(row)
			}
		}
	}
	if covered.Covers() {
		merged.Meta.Range = nil
	} else {
		merged.Meta.Range = &covered
	}
	return merged, nil
}

// orNone renders an empty spec hash readably in error messages.
func orNone(h string) string {
	if h == "" {
		return "(none)"
	}
	return h
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
