package telemetry

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// ParseLevel resolves a -log-level flag value (debug, info, warn,
// error; case-insensitive) onto its slog level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "info":
		return slog.LevelInfo, nil
	case "debug":
		return slog.LevelDebug, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("bad log level %q: want debug, info, warn or error", s)
}

// NewLogger builds the structured logger the service and the fleet
// share: slog onto w at the given level, in logfmt-style text by
// default or JSON when jsonFormat is set. The level string follows
// ParseLevel; a bad level is the caller's flag error.
func NewLogger(w io.Writer, level string, jsonFormat bool) (*slog.Logger, error) {
	lv, err := ParseLevel(level)
	if err != nil {
		return nil, err
	}
	opts := &slog.HandlerOptions{Level: lv}
	if jsonFormat {
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return slog.New(slog.NewTextHandler(w, opts)), nil
}

// BindLogFlags binds -log-level and -log-json, the logging flags of
// every long-running command (serve, coordinate, work), onto fs with
// their one default and help string. Once fs is parsed, the returned
// function builds the logger they select (NewLogger) onto w.
func BindLogFlags(fs *flag.FlagSet) func(w io.Writer) (*slog.Logger, error) {
	level := fs.String("log-level", "info", "structured-log level: debug, info, warn or error")
	jsonFormat := fs.Bool("log-json", false, "emit structured logs as JSON instead of logfmt-style text")
	return func(w io.Writer) (*slog.Logger, error) { return NewLogger(w, *level, *jsonFormat) }
}

// Discard returns a logger that drops everything — the nil-safe
// default for components whose callers passed no logger.
func Discard() *slog.Logger { return slog.New(slog.DiscardHandler) }
