package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// urbanArgs is the small, fast exploration the tests share: the default
// candidate space against the urban scenario at a reduced frame budget.
func urbanArgs(extra ...string) []string {
	return append([]string{"-scenarios", "urban-8cam", "-frames", "8", "-window", "4"}, extra...)
}

// TestTopTableGolden snapshots the ranked -top table for urban-8cam.
// Regenerate intentionally with:
//
//	go test ./cmd/pareto -run TestTopTableGolden -update
func TestTopTableGolden(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(urbanArgs("-top", "5"), &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	path := filepath.Join("testdata", "top_urban.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if out.String() != string(want) {
		t.Errorf("-top output drifted from %s (regenerate with -update if intentional)\n got:\n%s\nwant:\n%s",
			path, out.String(), want)
	}
}

// TestJSONSerialMatchesPool is the CLI-level acceptance lock: the
// frontier JSON is bit-for-bit identical for serial vs pooled execution
// and across repeated runs (exercised under -race by `make race`).
func TestJSONSerialMatchesPool(t *testing.T) {
	var serial, pooled, again strings.Builder
	var errOut strings.Builder
	if code := run(urbanArgs("-json", "-workers", "1"), &serial, &errOut); code != 0 {
		t.Fatalf("serial run failed: %s", errOut.String())
	}
	if code := run(urbanArgs("-json", "-workers", "4"), &pooled, &errOut); code != 0 {
		t.Fatalf("pooled run failed: %s", errOut.String())
	}
	if serial.String() != pooled.String() {
		t.Errorf("pooled JSON diverged from serial:\n serial: %s\n pooled: %s",
			serial.String(), pooled.String())
	}
	if code := run(urbanArgs("-json"), &again, &errOut); code != 0 {
		t.Fatalf("repeat run failed: %s", errOut.String())
	}
	if again.String() != serial.String() {
		t.Error("repeated run diverged")
	}
	var rep struct {
		Frontier []struct {
			Name string `json:"name"`
		} `json:"frontier"`
	}
	if err := json.Unmarshal([]byte(serial.String()), &rep); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	if len(rep.Frontier) == 0 {
		t.Error("empty frontier")
	}
}

// TestEvolveJSONSerialMatchesPool locks the evolutionary path's CLI
// determinism: same seed, serial vs pooled, byte-identical JSON — over
// a 2^16-point heterogeneous space no enumeration could cover.
func TestEvolveJSONSerialMatchesPool(t *testing.T) {
	args := func(extra ...string) []string {
		return append([]string{"-scenarios", "urban-8cam", "-frames", "4", "-window", "2",
			"-meshes", "4x4", "-dataflows", "OS", "-types", "simba,eco",
			"-evolve", "-generations", "3", "-population", "6", "-seed", "7", "-json"}, extra...)
	}
	var serial, pooled, errOut strings.Builder
	if code := run(args("-workers", "1"), &serial, &errOut); code != 0 {
		t.Fatalf("serial evolve failed: %s", errOut.String())
	}
	if code := run(args("-workers", "4"), &pooled, &errOut); code != 0 {
		t.Fatalf("pooled evolve failed: %s", errOut.String())
	}
	if serial.String() != pooled.String() {
		t.Errorf("pooled evolve JSON diverged from serial:\n serial: %s\n pooled: %s",
			serial.String(), pooled.String())
	}
	var rep struct {
		Frontier []struct {
			Name string `json:"name"`
		} `json:"frontier"`
		Evolution *struct {
			SpaceSize float64 `json:"space_size"`
		} `json:"evolution"`
	}
	if err := json.Unmarshal([]byte(serial.String()), &rep); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	if len(rep.Frontier) == 0 {
		t.Error("empty evolved frontier")
	}
	if rep.Evolution == nil || rep.Evolution.SpaceSize != 65536 {
		t.Errorf("evolution stats missing or wrong: %+v", rep.Evolution)
	}
}

func TestOutputFileRefusesClobber(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "frontier.csv")
	var out, errOut strings.Builder
	if code := run(urbanArgs("-csv", "-o", path), &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	data, err := os.ReadFile(path)
	if err != nil || !strings.Contains(string(data), "Candidate") {
		t.Fatalf("artifact not written: %v, %q", err, data)
	}
	if out.Len() != 0 {
		t.Errorf("-o should silence stdout, got %q", out.String())
	}

	errOut.Reset()
	if code := run(urbanArgs("-csv", "-o", path), &out, &errOut); code != 1 {
		t.Fatalf("clobber without -force should exit 1, got %d", code)
	}
	if !strings.Contains(errOut.String(), "-force") {
		t.Errorf("clobber error should mention -force: %s", errOut.String())
	}
	if code := run(urbanArgs("-csv", "-o", path, "-force"), &out, &errOut); code != 0 {
		t.Fatalf("-force overwrite failed: %s", errOut.String())
	}

	// Invalid input with -force must not truncate the existing artifact:
	// the file only opens after scenario/space validation.
	before, _ := os.ReadFile(path)
	if code := run([]string{"-scenarios", "no-such", "-csv", "-o", path, "-force"}, &out, &errOut); code != 2 {
		t.Fatalf("bad scenario with -o should exit 2, got %d", code)
	}
	if got, _ := os.ReadFile(path); string(got) != string(before) {
		t.Error("failed -force run truncated the previous artifact")
	}
}

func TestBadInputs(t *testing.T) {
	cases := [][]string{
		nil, // no scenarios
		{"-scenarios", "no-such-scenario"},
		{"-scenarios", "urban-8cam", "-meshes", "0x0"},
		{"-scenarios", "urban-8cam", "-meshes", "4x4junk"},
		{"-scenarios", "urban-8cam", "-dataflows", "XY"},
		{"-scenarios", "urban-8cam", "-linkbw", "-5"},
		{"-scenarios", "urban-8cam", "-linkbw", "NaN"},
		{"-scenarios", "urban-8cam", "-linkbw", "Inf", "-evolve"},
		{"-scenarios", "urban-8cam", "-objectives", "edp"},
		{"-scenarios", "urban-8cam", "-types", "nosuch"},
		{"-scenarios", "urban-8cam", "-generations", "5"}, // requires -evolve
		{"-scenarios", "urban-8cam", "-evolve", "-population", "1"},
		{"-not-a-flag"},
	}
	for _, args := range cases {
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("args %v: exit %d, want 2 (stderr: %s)", args, code, errOut.String())
		}
	}
}
