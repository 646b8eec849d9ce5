package report

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCreateFileRefusesClobber(t *testing.T) {
	path := filepath.Join(t.TempDir(), "artifact.csv")
	f, err := CreateFile(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("first"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if _, err := CreateFile(path, false); err == nil {
		t.Fatal("existing file overwritten without force")
	} else if !strings.Contains(err.Error(), "-force") {
		t.Errorf("error should point at -force: %v", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "first" {
		t.Errorf("refused create modified the file: %q", got)
	}

	g, err := CreateFile(path, true)
	if err != nil {
		t.Fatalf("force create: %v", err)
	}
	g.WriteString("second")
	g.Close()
	if got, _ := os.ReadFile(path); string(got) != "second" {
		t.Errorf("force create did not truncate: %q", got)
	}

	if _, err := CreateFile(filepath.Join(t.TempDir(), "no", "such", "dir", "f"), false); err == nil {
		t.Error("unwritable path accepted")
	}
}

func TestArtifactFlushAndAbort(t *testing.T) {
	// Empty path: the fallback writer receives the render.
	var sb strings.Builder
	a, err := OpenArtifact("", false, &sb)
	if err != nil {
		t.Fatal(err)
	}
	a.Abort() // no-op on a fallback-backed artifact
	if err := a.Flush(func(w io.Writer) { io.WriteString(w, "hello") }); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "hello" {
		t.Errorf("fallback flush wrote %q", sb.String())
	}

	// File path: clobber contract + flushed content + abort leaves the
	// (empty) file behind without completing a write.
	path := filepath.Join(t.TempDir(), "a.txt")
	a, err = OpenArtifact(path, false, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(func(w io.Writer) { io.WriteString(w, "data") }); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "data" {
		t.Errorf("file flush wrote %q", got)
	}
	if _, err := OpenArtifact(path, false, &sb); err == nil {
		t.Error("existing artifact reopened without force")
	}
	b, err := OpenArtifact(path, true, &sb)
	if err != nil {
		t.Fatal(err)
	}
	b.Abort()
	if err := b.Flush(func(w io.Writer) { io.WriteString(w, "late") }); err == nil {
		t.Error("flush after abort should fail (file closed)")
	}
}

func sample() *Table {
	t := NewTable("Title", "Name", "Value")
	t.AddRow("alpha", 1.5)
	t.AddRow("beta", 12345.0)
	t.AddRow("with,comma", "x\"y")
	return t
}

func TestRenderAligned(t *testing.T) {
	out := sample().String()
	if !strings.Contains(out, "Title") || !strings.Contains(out, "Name") {
		t.Fatalf("missing title/header:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 { // title, header, separator, 3 rows
		t.Errorf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "1.5") {
		t.Error("row content missing")
	}
}

func TestCSVEscaping(t *testing.T) {
	csv := sample().CSV()
	if !strings.Contains(csv, `"with,comma"`) {
		t.Errorf("comma cell not quoted:\n%s", csv)
	}
	if !strings.Contains(csv, `"x""y"`) {
		t.Errorf("quote cell not escaped:\n%s", csv)
	}
	if !strings.HasPrefix(csv, "Name,Value\n") {
		t.Errorf("header row wrong:\n%s", csv)
	}
}

func TestMarkdown(t *testing.T) {
	md := sample().Markdown()
	if !strings.HasPrefix(md, "| Name | Value |") {
		t.Errorf("markdown header:\n%s", md)
	}
	if !strings.Contains(md, "| --- | --- |") {
		t.Error("markdown separator missing")
	}
}

func TestJSON(t *testing.T) {
	var v struct {
		Title   string     `json:"title"`
		Headers []string   `json:"headers"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal([]byte(sample().JSON()), &v); err != nil {
		t.Fatalf("JSON() is not valid JSON: %v", err)
	}
	if v.Title != "Title" {
		t.Errorf("title = %q", v.Title)
	}
	if len(v.Headers) != 2 || v.Headers[0] != "Name" {
		t.Errorf("headers = %v", v.Headers)
	}
	if len(v.Rows) != 3 || v.Rows[2][1] != `x"y` {
		t.Errorf("rows = %v", v.Rows)
	}
	// Cells must match the text renderer's formatting.
	if v.Rows[0][1] != "1.5" {
		t.Errorf("formatted cell = %q, want 1.5", v.Rows[0][1])
	}
}

func TestJSONEmptyTable(t *testing.T) {
	out := NewTable("t", "h").JSON()
	if !strings.Contains(out, `"rows":[]`) {
		t.Errorf("empty table should serialize rows as []:\n%s", out)
	}
}

func TestFloatFormatting(t *testing.T) {
	tb := NewTable("", "v")
	tb.AddRow(0.0)
	tb.AddRow(0.0001)
	tb.AddRow(3.14159)
	tb.AddRow(42.5)
	tb.AddRow(98765.0)
	out := tb.String()
	for _, want := range []string{"0", "1.00e-04", "3.14", "42.5", "98765"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestBars(t *testing.T) {
	var b strings.Builder
	Bars(&b, "chart", []string{"a", "bb"}, []float64{1, 2}, "ms")
	out := b.String()
	if !strings.Contains(out, "chart") || !strings.Contains(out, "##") {
		t.Errorf("bars output:\n%s", out)
	}
	// The larger value gets the longer bar.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if strings.Count(lines[1], "#") >= strings.Count(lines[2], "#") {
		t.Error("bar lengths not proportional")
	}
}

func TestBarsZeroSafe(t *testing.T) {
	var b strings.Builder
	Bars(&b, "", []string{"x"}, []float64{0}, "")
	if !strings.Contains(b.String(), "x") {
		t.Error("zero-value bars should still render labels")
	}
}
