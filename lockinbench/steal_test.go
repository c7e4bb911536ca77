package main

import (
	"testing"
	"time"
)

func TestParseSteal(t *testing.T) {
	const stat = `cpu  1159926 0 64126 1023726 2386 0 10566 1714 0 0
cpu0 579659 0 32051 512232 1312 0 5094 885 0 0
cpu1 580267 0 32074 511493 1074 0 5472 829 0 0
intr 123 4 5
ctxt 987654
`
	// 1714 ticks of 10 ms over 2 CPUs.
	if got, want := parseSteal(stat), 8570*time.Millisecond; got != want {
		t.Errorf("parseSteal = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "cpu  1 2 3\ncpu0 1 2 3\n", "cpu  1 0 1 1 1 0 1 x 0 0\ncpu0 1 0 1 1 1 0 1 2 0 0\n"} {
		if got := parseSteal(bad); got != 0 {
			t.Errorf("parseSteal(%q) = %v, want 0 where no steal is reported", bad, got)
		}
	}
}
