package main

import (
	"flag"
	"testing"

	"lockin/internal/serve"
)

// flagValue reads a parsed flag's value through the flag set.
func flagValue(fs *flag.FlagSet, name string) string { return fs.Lookup(name).Value.String() }

func TestServeFlags(t *testing.T) {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	f := bindServeFlags(fs)
	if err := fs.Parse([]string{
		"-addr", ":9000", "-cache", "c", "-pool", "3", "-queue", "10",
		"-cache-max-bytes", "1MiB", "-cache-max-runs", "5",
		"-rate", "2.5", "-rate-burst", "4", "-auth-token", "tok",
		"-log-level", "warn", "-log-json",
	}); err != nil {
		t.Fatal(err)
	}
	cfg, err := f.config()
	if err != nil {
		t.Fatal(err)
	}
	if f.addr != ":9000" || cfg.CacheDir != "c" || cfg.Pool != 3 || cfg.QueueDepth != 10 ||
		cfg.CacheMaxBytes != 1<<20 || cfg.CacheMaxRuns != 5 ||
		cfg.RateLimit != 2.5 || cfg.RateBurst != 4 || cfg.AuthToken != "tok" ||
		flagValue(fs, "log-level") != "warn" || flagValue(fs, "log-json") != "true" || cfg.Logger == nil {
		t.Errorf("parsed serve flags: addr %q, log %q/%s, config %+v",
			f.addr, flagValue(fs, "log-level"), flagValue(fs, "log-json"), cfg)
	}
}

// TestServeFlagsDefaults pins the flag defaults: the pool and queue
// serve.New falls back to, and the process's own address, cache
// directory, burst and log level.
func TestServeFlagsDefaults(t *testing.T) {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	f := bindServeFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	cfg, err := f.config()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Logger = nil
	want := serve.Config{CacheDir: "runs-cache", Pool: serve.DefaultPool, QueueDepth: serve.DefaultQueueDepth, RateBurst: 8}
	level, jsonLog := flagValue(fs, "log-level"), flagValue(fs, "log-json")
	if cfg != want || f.addr != ":8347" || level != "info" || jsonLog != "false" {
		t.Errorf("flag defaults: addr %q, log %q/%s, config %+v, want %+v", f.addr, level, jsonLog, cfg, want)
	}
}

func TestServeFlagsBadValues(t *testing.T) {
	for _, args := range [][]string{
		{"-cache-max-bytes", "12qb"},
		{"-log-level", "loud"},
	} {
		fs := flag.NewFlagSet("serve", flag.ContinueOnError)
		f := bindServeFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatalf("flag parse %v: %v", args, err)
		}
		if _, err := f.config(); err == nil {
			t.Errorf("config() after %v: want error, got nil", args)
		}
	}
}
