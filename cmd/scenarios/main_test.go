package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestListShowsRegistry(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	// Acceptance: -list shows at least 8 registered scenarios.
	lines := strings.Count(strings.TrimRight(out.String(), "\n"), "\n") - 2 // title + header + sep
	if lines < 8 {
		t.Errorf("-list shows %d scenarios; want >= 8:\n%s", lines, out.String())
	}
	for _, name := range []string{"urban-8cam", "bigpackage-12x6", "mono-baseline-1x9216"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list missing %s", name)
		}
	}
}

func TestListFilterNoMatch(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list", "-filter", "zzz"}, &out, &errOut); code != 2 {
		t.Errorf("no-match filter should exit 2, got %d", code)
	}
}

// TestRunJSONDeterministic is the acceptance lock: running the same
// scenario twice (here through the worker pool) emits byte-identical
// machine-readable output.
func TestRunJSONDeterministic(t *testing.T) {
	args := []string{"-run", "urban-8cam", "-frames", "64", "-json"}
	var first string
	for i := 0; i < 2; i++ {
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, errOut.String())
		}
		if i == 0 {
			first = out.String()
			if !strings.Contains(first, `"urban-8cam"`) || !strings.HasPrefix(first, `{"title"`) {
				t.Fatalf("not machine-readable JSON: %s", first)
			}
		} else if out.String() != first {
			t.Errorf("same scenario, different output:\n 1st: %s\n 2nd: %s", first, out.String())
		}
	}
}

func TestSerialFlagMatchesPool(t *testing.T) {
	base := []string{"-run", "highway-5cam", "-frames", "8", "-window", "4", "-json"}
	var pool, serial strings.Builder
	var errOut strings.Builder
	if code := run(base, &pool, &errOut); code != 0 {
		t.Fatalf("pool run failed: %s", errOut.String())
	}
	if code := run(append(base, "-workers", "1"), &serial, &errOut); code != 0 {
		t.Fatalf("serial run failed: %s", errOut.String())
	}
	if pool.String() != serial.String() {
		t.Errorf("-workers 1 changed the output:\n pool:   %s\n serial: %s", pool.String(), serial.String())
	}
}

func TestRunUnknownScenario(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-run", "no-such"}, &out, &errOut); code != 2 {
		t.Errorf("unknown scenario should exit 2, got %d", code)
	}
	if !strings.Contains(errOut.String(), "unknown scenario") {
		t.Errorf("stderr: %s", errOut.String())
	}
}

func TestNoActionUsage(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(nil, &out, &errOut); code != 2 {
		t.Errorf("no action should exit 2, got %d", code)
	}
	if !strings.Contains(errOut.String(), "-list") {
		t.Errorf("usage not printed: %s", errOut.String())
	}
}

// TestOutputFileRefusesClobber: -json/-csv share the -o output path,
// which must never silently overwrite an existing artifact — a rerun
// without -force fails before any scenario executes.
func TestOutputFileRefusesClobber(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "results.json")
	args := []string{"-run", "urban-8cam", "-frames", "4", "-window", "4", "-json", "-o", path}
	var out, errOut strings.Builder
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	first, err := os.ReadFile(path)
	if err != nil || !strings.Contains(string(first), `"urban-8cam"`) {
		t.Fatalf("artifact not written: %v, %q", err, first)
	}
	if out.Len() != 0 {
		t.Errorf("-o should silence stdout, got %q", out.String())
	}

	errOut.Reset()
	if code := run(args, &out, &errOut); code != 1 {
		t.Fatalf("rerun without -force should exit 1, got %d (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "-force") {
		t.Errorf("clobber error should mention -force: %s", errOut.String())
	}
	if got, _ := os.ReadFile(path); string(got) != string(first) {
		t.Error("refused run still modified the artifact")
	}

	// Invalid input with -force must not truncate the existing artifact:
	// the file only opens after the scenario selection validates.
	if code := run([]string{"-run", "no-such", "-json", "-o", path, "-force"}, &out, &errOut); code != 2 {
		t.Fatalf("bad scenario with -o should exit 2, got %d", code)
	}
	if got, _ := os.ReadFile(path); string(got) != string(first) {
		t.Error("failed -force run truncated the previous artifact")
	}

	// -force overwrites; -csv through the same path works too.
	csvArgs := []string{"-run", "urban-8cam", "-frames", "4", "-window", "4", "-csv", "-o", path, "-force"}
	if code := run(csvArgs, &out, &errOut); code != 0 {
		t.Fatalf("-force overwrite failed: %s", errOut.String())
	}
	if got, _ := os.ReadFile(path); !strings.Contains(string(got), "Scenario,") {
		t.Errorf("-force did not replace the artifact: %q", got)
	}
}

func TestBadFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-definitely-not-a-flag"}, &out, &errOut); code != 2 {
		t.Errorf("bad flag should exit 2, got %d", code)
	}
}

func TestSpecFileAndCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spec.json")
	spec := `{"name":"custom-4x4","package":"mesh:4x4","camera_fps":15,"frames":4}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if code := run([]string{"-spec", path, "-window", "2", "-csv"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "custom-4x4") || !strings.Contains(out.String(), "Scenario,") {
		t.Errorf("CSV output: %s", out.String())
	}

	if code := run([]string{"-spec", filepath.Join(dir, "missing.json")}, &out, &errOut); code != 2 {
		t.Error("missing spec file should exit 2")
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{"name":"x","package":"nope"}`), 0o644)
	if code := run([]string{"-spec", bad}, &out, &errOut); code != 2 {
		t.Error("invalid spec should exit 2")
	}
}
