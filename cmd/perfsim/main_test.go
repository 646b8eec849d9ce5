package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFig3(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-fig3"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"OS speedup over WS", "latency shares"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-fig3 output missing %q:\n%s", want, out.String())
		}
	}
}

func TestFig4CSV(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-fig4", "-csv"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), ",") || strings.Contains(out.String(), "---") {
		t.Errorf("-csv should emit CSV, not an aligned table:\n%s", out.String())
	}
}

func TestModelProfiles(t *testing.T) {
	for _, m := range []string{"fe", "sfuse", "tfuse", "occupancy", "lane", "det"} {
		var out, errOut strings.Builder
		if code := run([]string{"-model", m}, &out, &errOut); code != 0 {
			t.Fatalf("-model %s: exit %d, stderr: %s", m, code, errOut.String())
		}
		if !strings.Contains(out.String(), "Per-layer profile") {
			t.Errorf("-model %s output:\n%s", m, out.String())
		}
	}
}

func TestUnknownModel(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-model", "resnet152"}, &out, &errOut); code != 2 {
		t.Errorf("unknown model should exit 2, got %d", code)
	}
	if !strings.Contains(errOut.String(), "unknown model") {
		t.Errorf("stderr: %s", errOut.String())
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

func TestDeterministicOutput(t *testing.T) {
	var a, b, errOut strings.Builder
	if code := run([]string{"-fig4"}, &a, &errOut); code != 0 {
		t.Fatal(errOut.String())
	}
	if code := run([]string{"-fig4"}, &b, &errOut); code != 0 {
		t.Fatal(errOut.String())
	}
	if a.String() != b.String() {
		t.Error("same flags, different output")
	}
}

// TestReadmeInvocations runs every cmd/perfsim command the README
// documents through run; each must exit 0.
func TestReadmeInvocations(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, line := range strings.Split(string(data), "\n") {
		_, rest, ok := strings.Cut(line, "go run ./cmd/perfsim")
		if !ok {
			continue
		}
		rest, _, _ = strings.Cut(rest, "#")
		args := strings.Fields(rest)
		found++
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 0 {
			t.Errorf("README's perfsim %v: exit %d, stderr: %s", args, code, errOut.String())
		}
	}
	if found == 0 {
		t.Fatal("README.md documents no go run ./cmd/perfsim invocation")
	}
}
