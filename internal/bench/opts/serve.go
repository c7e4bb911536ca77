// Serve options: the service-process knobs of `lockbench serve`, on
// the same bind-parse-validate shape as the shared run options — one
// ServeOptions struct with one Defaults, one flag binding, one
// validation pass — so the serve front-end stays on the package's
// single option surface even for knobs that never appear in a URL
// query (they configure the serving process, not a run).

package opts

import (
	"flag"
	"fmt"
	"math"
	"strconv"
	"strings"

	"lockin/internal/telemetry"
)

// ServeOptions configures the `lockbench serve` process: where it
// listens, the cache it answers from and that cache's bounds, the
// worker pool, and the traffic guards (auth token, per-client rate
// limit). Start from ServeDefaults.
type ServeOptions struct {
	// Addr is the HTTP listen address.
	Addr string
	// Cache is the run-cache directory (serve.Config.CacheDir); the
	// submission journal lives inside it as journal.jsonl.
	Cache string
	// Pool is the number of sweeps simulated concurrently.
	Pool int
	// Queue bounds the submission queue.
	Queue int
	// CacheMaxBytes/CacheMaxRuns bound the run cache (LRU eviction);
	// 0 means unbounded. The flag accepts unit suffixes via ParseBytes
	// ("512MiB", "2GB").
	CacheMaxBytes int64
	CacheMaxRuns  int
	// RateLimit is the per-client POST budget in requests per second
	// (0 disables); RateBurst is the token-bucket depth.
	RateLimit float64
	RateBurst int
	// AuthToken, when non-empty, gates POST routes behind
	// Authorization: Bearer <token>.
	AuthToken string
	// LogLevel/LogJSON shape the process logger, same semantics as the
	// run options' fields.
	LogLevel string
	LogJSON  bool
}

// ServeDefaults returns the canonical serve configuration: the CLI
// flag defaults and what serve.New falls back to.
func ServeDefaults() ServeOptions {
	return ServeOptions{
		Addr:      ":8347",
		Cache:     "runs-cache",
		Pool:      2,
		Queue:     64,
		RateBurst: 8,
		LogLevel:  "info",
	}
}

// ServeFlags holds serve options bound onto a flag set but not yet
// finalized: -cache-max-bytes collects as a string (it takes unit
// suffixes) and parses in Options().
type ServeFlags struct {
	opts     ServeOptions
	maxBytes *string
}

// FromServeFlags binds the serve option surface onto fs with the
// canonical names, defaults and help strings.
func FromServeFlags(fs *flag.FlagSet) *ServeFlags {
	f := &ServeFlags{opts: ServeDefaults()}
	fs.StringVar(&f.opts.Addr, "addr", f.opts.Addr, "listen address")
	fs.StringVar(&f.opts.Cache, "cache", f.opts.Cache, "run-cache directory: completed runs land here as <cache key>.json; identical submissions answer from it without simulating")
	fs.IntVar(&f.opts.Pool, "pool", f.opts.Pool, "sweeps simulated concurrently (each sweep additionally parallelizes per its workers option)")
	fs.IntVar(&f.opts.Queue, "queue", f.opts.Queue, "submission queue depth; a full queue answers 503 (with Retry-After) instead of buffering unboundedly")
	f.maxBytes = fs.String("cache-max-bytes", "", "run-cache size bound with LRU eviction, unit suffixes accepted (e.g. 512MiB, 2GB); empty or 0 = unbounded")
	fs.IntVar(&f.opts.CacheMaxRuns, "cache-max-runs", 0, "run-cache count bound with LRU eviction; 0 = unbounded")
	fs.Float64Var(&f.opts.RateLimit, "rate", 0, "per-client POST budget in requests/second (token bucket; 429 with Retry-After when exhausted); 0 = unlimited")
	fs.IntVar(&f.opts.RateBurst, "rate-burst", f.opts.RateBurst, "token-bucket depth per client: POSTs a client may burst before -rate paces it")
	fs.StringVar(&f.opts.AuthToken, "auth-token", "", "when set, POST routes require Authorization: Bearer <token> (401 without); GET routes stay open")
	fs.StringVar(&f.opts.LogLevel, "log-level", f.opts.LogLevel, "structured-log level: debug, info, warn or error (warn silences per-request lines)")
	fs.BoolVar(&f.opts.LogJSON, "log-json", false, "emit structured logs as JSON instead of logfmt-style text")
	return f
}

// Options finalizes the bound flags after the flag set was parsed.
func (f *ServeFlags) Options() (ServeOptions, error) {
	o := f.opts
	var err error
	if f.maxBytes != nil {
		if o.CacheMaxBytes, err = ParseBytes(*f.maxBytes); err != nil {
			return o, err
		}
	}
	if err := o.Validate(); err != nil {
		return o, err
	}
	return o, nil
}

// Validate rejects serve options that would misconfigure the service.
// It leaves a non-positive burst as given: serve.New floors the bucket
// at 1 under an active rate limit.
func (o *ServeOptions) Validate() error {
	if o.Cache == "" {
		return fmt.Errorf("cache directory must not be empty")
	}
	if o.CacheMaxBytes < 0 {
		return fmt.Errorf("bad cache-max-bytes %d: want >= 0 (0 = unbounded)", o.CacheMaxBytes)
	}
	if o.CacheMaxRuns < 0 {
		return fmt.Errorf("bad cache-max-runs %d: want >= 0 (0 = unbounded)", o.CacheMaxRuns)
	}
	if o.RateLimit < 0 || math.IsInf(o.RateLimit, 0) || math.IsNaN(o.RateLimit) {
		return fmt.Errorf("bad rate %v: want a non-negative, finite requests/second", o.RateLimit)
	}
	if _, err := telemetry.ParseLevel(o.LogLevel); err != nil {
		return err
	}
	return nil
}

// byteUnits maps the accepted -cache-max-bytes suffixes, case-
// insensitive: decimal (kB/MB/GB) and binary (KiB/MiB/GiB) families,
// plus a bare number or trailing "B" for bytes.
var byteUnits = map[string]int64{
	"": 1, "b": 1,
	"kb": 1e3, "mb": 1e6, "gb": 1e9,
	"kib": 1 << 10, "mib": 1 << 20, "gib": 1 << 30,
}

// ParseBytes parses a human byte size — "1048576", "512MiB", "2GB" —
// into bytes. An empty string is 0 (unbounded).
func ParseBytes(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	i := 0
	for i < len(s) && (s[i] == '.' || (s[i] >= '0' && s[i] <= '9')) {
		i++
	}
	num, unit := s[:i], strings.ToLower(strings.TrimSpace(s[i:]))
	mult, ok := byteUnits[unit]
	if num == "" || !ok {
		return 0, fmt.Errorf("bad byte size %q: want <number>[B|kB|MB|GB|KiB|MiB|GiB]", s)
	}
	f, err := strconv.ParseFloat(num, 64)
	if err != nil || f < 0 || math.IsInf(f, 0) {
		return 0, fmt.Errorf("bad byte size %q: want a non-negative number", s)
	}
	n := f * float64(mult)
	if n > math.MaxInt64 {
		return 0, fmt.Errorf("bad byte size %q: overflows", s)
	}
	return int64(n), nil
}
