package main

import (
	"strings"
	"testing"

	"regimap/internal/engine"
)

func TestUnknownMapperMessageListsRegistry(t *testing.T) {
	msg := unknownMapperMessage("no-such-mapper")
	if !strings.Contains(msg, `unknown mapper "no-such-mapper"`) {
		t.Fatalf("message does not name the bad mapper:\n%s", msg)
	}
	names := engine.Names()
	if len(names) != 6 {
		t.Fatalf("registry has %d engines, want the 6, got %v", len(names), names)
	}
	for _, n := range names {
		if !strings.Contains(msg, n) {
			t.Fatalf("message does not list engine %q:\n%s", n, msg)
		}
		m, _ := engine.Lookup(n)
		if d := engine.Describe(m); d != "" && !strings.Contains(msg, d) {
			t.Fatalf("message does not describe engine %q:\n%s", n, msg)
		}
	}
	for _, want := range []string{"exact", "regimap", "dresc", "ems", "portfolio", "resilient"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("message missing %q:\n%s", want, msg)
		}
	}
}

func TestDRESCPortfolioFlagPointsAtRestarts(t *testing.T) {
	if msg := flagConflict("dresc", 3); !strings.Contains(msg, "-dresc-restarts") {
		t.Fatalf("-mapper dresc -portfolio 3 does not point at -dresc-restarts: %q", msg)
	}
	for _, ok := range []struct {
		mapper    string
		portfolio int
	}{{"dresc", 1}, {"dresc", 0}, {"regimap", 8}, {"ems", 1}} {
		if msg := flagConflict(ok.mapper, ok.portfolio); msg != "" {
			t.Errorf("-mapper %s -portfolio %d rejected: %q", ok.mapper, ok.portfolio, msg)
		}
	}
}
