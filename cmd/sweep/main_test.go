package main

import (
	"strings"
	"testing"
)

func TestGridSingleScenario(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-grid", "-scenarios", "cameras"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "camera count") {
		t.Errorf("grid output missing camera sweep:\n%s", out.String())
	}
}

func TestGridUnknownScenario(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-grid", "-scenarios", "nope"}, &out, &errOut); code != 2 {
		t.Errorf("unknown grid scenario should exit 2, got %d", code)
	}
	if !strings.Contains(errOut.String(), "no scenario matches") {
		t.Errorf("stderr: %s", errOut.String())
	}
}

func TestDSEJSON(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-dse", "-json"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.HasPrefix(out.String(), `{"title"`) {
		t.Errorf("-json should emit the table as JSON:\n%s", out.String())
	}
}

// TestDSELcstrOutOfRange: a constraint outside [0, 1e5], NaN included,
// is a usage error that runs nothing.
func TestDSELcstrOutOfRange(t *testing.T) {
	for _, lcstr := range []string{"NaN", "-3", "1e6"} {
		var out, errOut strings.Builder
		if code := run([]string{"-dse", "-lcstr", lcstr}, &out, &errOut); code != 2 {
			t.Errorf("-lcstr %s: exit %d, want 2 (stdout: %s)", lcstr, code, out.String())
		}
		if !strings.Contains(errOut.String(), "out of range") {
			t.Errorf("-lcstr %s: stderr %q", lcstr, errOut.String())
		}
	}
}

func TestDSEDeterministic(t *testing.T) {
	args := []string{"-dse", "-json", "-workers", "3"}
	var a, b, errOut strings.Builder
	if code := run(args, &a, &errOut); code != 0 {
		t.Fatal(errOut.String())
	}
	if code := run(args, &b, &errOut); code != 0 {
		t.Fatal(errOut.String())
	}
	if a.String() != b.String() {
		t.Error("parallel DSE output must be deterministic across runs")
	}
}

func TestCacheStats(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-grid", "-scenarios", "tolerance", "-cachestats"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "layer-cost cache") {
		t.Errorf("-cachestats missing from stderr: %s", errOut.String())
	}
}

func TestNoActionUsage(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(nil, &out, &errOut); code != 2 {
		t.Errorf("no action should exit 2, got %d", code)
	}
}

func TestBadFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-nope"}, &out, &errOut); code != 2 {
		t.Errorf("bad flag should exit 2, got %d", code)
	}
}
