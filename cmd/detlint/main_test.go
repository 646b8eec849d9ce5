package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestListShowsSuite(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, name := range []string{
		"mapiterorder", "pooldiscipline", "seedpurity", "atomicmix", "orderedreduce",
		"hotpathalloc", "goroleak", "lockorder", "ctxflow",
	} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list missing %s:\n%s", name, out.String())
		}
	}
}

// fixtureModule writes a throwaway module with one dirty and one clean
// package, and returns its root.
func fixtureModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module fixturemod\n\ngo 1.24\n",
		"bad/bad.go": `package bad

import "fmt"

func Dump(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v)
	}
}
`,
		"ok/ok.go": `package ok

func Sum(xs []int) int {
	n := 0
	for _, v := range xs {
		n += v
	}
	return n
}
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestFindingsExitCode(t *testing.T) {
	dir := fixtureModule(t)
	var out, errOut strings.Builder
	if code := run([]string{"-C", dir, "./..."}, &out, &errOut); code != 1 {
		t.Fatalf("dirty module should exit 1, got %d (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(out.String(), "bad.go") || !strings.Contains(out.String(), "[mapiterorder]") {
		t.Errorf("finding not reported:\n%s", out.String())
	}
}

func TestCleanPackage(t *testing.T) {
	dir := fixtureModule(t)
	var out, errOut strings.Builder
	if code := run([]string{"-C", dir, "./ok"}, &out, &errOut); code != 0 {
		t.Fatalf("clean package should exit 0, got %d:\n%s%s", code, out.String(), errOut.String())
	}
	if out.String() != "" {
		t.Errorf("clean run should print nothing, got:\n%s", out.String())
	}
}

func TestJSONOutput(t *testing.T) {
	dir := fixtureModule(t)
	var out, errOut strings.Builder
	if code := run([]string{"-C", dir, "-json", "./..."}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	var findings []jsonFinding
	if err := json.Unmarshal([]byte(out.String()), &findings); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, out.String())
	}
	if len(findings) != 1 {
		t.Fatalf("findings = %d, want 1: %+v", len(findings), findings)
	}
	f := findings[0]
	if f.Analyzer != "mapiterorder" || f.Line == 0 || !strings.HasSuffix(f.Path, "bad.go") {
		t.Errorf("unexpected finding: %+v", f)
	}
}

func TestOnlySkipSelection(t *testing.T) {
	dir := fixtureModule(t)
	var out, errOut strings.Builder
	if code := run([]string{"-C", dir, "-only", "seedpurity", "./..."}, &out, &errOut); code != 0 {
		t.Errorf("-only seedpurity should find nothing, got exit %d:\n%s", code, out.String())
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-C", dir, "-skip", "mapiterorder", "./..."}, &out, &errOut); code != 0 {
		t.Errorf("-skip mapiterorder should find nothing, got exit %d:\n%s", code, out.String())
	}
}

// hotFixtureModule writes a throwaway module with one package whose
// only violation is a P1 hot-path allocation.
func hotFixtureModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module hotfixture\n\ngo 1.24\n",
		"hot/hot.go": `package hot

// Spin allocates a map per iteration on an annotated hot path.
//
//perf:hot
func Spin(xs []int) int {
	total := 0
	for range xs {
		m := make(map[int]bool)
		_ = m
		total++
	}
	return total
}
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestOnlySkipNewAnalyzers: the P/C analyzer names resolve through
// -only and -skip, and selection changes the exit code accordingly.
func TestOnlySkipNewAnalyzers(t *testing.T) {
	dir := hotFixtureModule(t)

	var out, errOut strings.Builder
	if code := run([]string{"-C", dir, "-only", "hotpathalloc", "./..."}, &out, &errOut); code != 1 {
		t.Fatalf("-only hotpathalloc should report the P1 finding (exit 1), got %d:\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "[hotpathalloc]") || !strings.Contains(out.String(), "rule P1") {
		t.Errorf("finding should cite the analyzer and rule:\n%s", out.String())
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"-C", dir, "-skip", "hotpathalloc", "./..."}, &out, &errOut); code != 0 {
		t.Fatalf("-skip hotpathalloc should silence the only finding (exit 0), got %d:\n%s%s", code, out.String(), errOut.String())
	}

	// Every new analyzer name parses in both flags.
	for _, name := range []string{"goroleak", "lockorder", "ctxflow"} {
		out.Reset()
		errOut.Reset()
		if code := run([]string{"-C", dir, "-only", name, "./..."}, &out, &errOut); code != 0 {
			t.Errorf("-only %s on this module should be clean, got exit %d:\n%s%s", name, code, out.String(), errOut.String())
		}
	}
}

func TestUnknownAnalyzer(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-only", "nosuch"}, &out, &errOut); code != 2 {
		t.Errorf("unknown analyzer should exit 2, got %d", code)
	}
	if !strings.Contains(errOut.String(), "unknown analyzer") {
		t.Errorf("error not reported: %s", errOut.String())
	}
}
