package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcmnpu/internal/scenario"
	"mcmnpu/internal/workloads"
)

func TestDefaultPipeline(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(nil, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"sharding:", "package map", "overall: pipe"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("default run missing %q:\n%s", want, out.String())
		}
	}
}

// TestShardListingSorted locks the D1 fix: shard names render in
// sorted order, not map order.
func TestShardListingSorted(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(nil, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	lines := strings.Split(out.String(), "\n")
	for i := 0; i < len(lines); i++ {
		if !strings.HasSuffix(strings.TrimSpace(lines[i]), "sharding:") {
			continue
		}
		var names []string
		for j := i + 1; j < len(lines); j++ {
			l := lines[j]
			if !strings.HasPrefix(l, "  ") || !strings.Contains(l, " x") {
				break
			}
			names = append(names, strings.Fields(l)[0])
		}
		for k := 1; k < len(names); k++ {
			if names[k-1] > names[k] {
				t.Errorf("shard listing out of order: %q after %q", names[k], names[k-1])
			}
		}
	}
}

func TestBadConfigPath(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-spec", "does-not-exist.json"}, &out, &errOut); code != 1 {
		t.Errorf("missing -spec file should exit 1, got %d", code)
	}
}

// writeSpec writes a scenario spec file and returns its path.
func writeSpec(t *testing.T, sp scenario.Spec) string {
	t.Helper()
	b, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSpecRefusesPackageOverride: schedule applies only the spec's
// workload, so a spec asking for another package fails loudly and
// points at the command that honors it.
func TestSpecRefusesPackageOverride(t *testing.T) {
	path := writeSpec(t, scenario.Spec{Name: "dual", Package: "dual72"})
	var out, errOut strings.Builder
	if code := run([]string{"-spec", path}, &out, &errOut); code != 1 {
		t.Fatalf("package override should exit 1, got %d", code)
	}
	if !strings.Contains(errOut.String(), "cmd/scenarios -spec") {
		t.Errorf("error should point at cmd/scenarios -spec: %s", errOut.String())
	}
}

func TestSpecWorkloadChangesSchedule(t *testing.T) {
	cfg := workloads.DefaultConfig()
	cfg.Cameras = 6
	path := writeSpec(t, scenario.Spec{Name: "six-cam", Workload: cfg})
	var def, six, errOut strings.Builder
	if code := run(nil, &def, &errOut); code != 0 {
		t.Fatalf("default run: exit %d, stderr: %s", code, errOut.String())
	}
	if code := run([]string{"-spec", path}, &six, &errOut); code != 0 {
		t.Fatalf("spec run: exit %d, stderr: %s", code, errOut.String())
	}
	if six.String() == def.String() {
		t.Error("a 6-camera workload printed the default 8-camera schedule")
	}
}

func TestBadFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-nosuchflag"}, &out, &errOut); code != 2 {
		t.Errorf("bad flag should exit 2, got %d", code)
	}
}
