// Package report renders experiment results as aligned text tables,
// CSV, and simple ASCII charts — the output layer for the cmd/ tools
// and the benchmark harnesses that regenerate the paper's tables and
// figures.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// CreateFile opens path for writing an artifact, refusing to overwrite
// an existing file unless force is set — the CLIs route their -o flag
// through here so a stray rerun never silently clobbers an exported
// table. The caller closes the file.
func CreateFile(path string, force bool) (*os.File, error) {
	flags := os.O_WRONLY | os.O_CREATE | os.O_TRUNC
	if !force {
		flags = os.O_WRONLY | os.O_CREATE | os.O_EXCL
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		if os.IsExist(err) {
			return nil, fmt.Errorf("report: %s exists; pass -force to overwrite", path)
		}
		return nil, err
	}
	return f, nil
}

// Artifact is a CLI output destination resolved up front: a -o file
// (opened through CreateFile, so the clobber check fails fast before
// any long computation) or a fallback writer such as stdout. Open
// early, Flush once at the end; Abort on failure paths in between.
type Artifact struct {
	file *os.File
	out  io.Writer
}

// OpenArtifact resolves path (empty = the fallback writer) with the
// CreateFile clobber contract.
func OpenArtifact(path string, force bool, fallback io.Writer) (*Artifact, error) {
	if path == "" {
		return &Artifact{out: fallback}, nil
	}
	f, err := CreateFile(path, force)
	if err != nil {
		return nil, err
	}
	return &Artifact{file: f, out: f}, nil
}

// Abort releases the artifact without completing it (error paths after
// a successful open). A stdout-backed artifact is a no-op.
func (a *Artifact) Abort() {
	if a.file != nil {
		a.file.Close()
	}
}

// Flush renders into a buffer, then writes with write AND close errors
// checked: a short write (full disk, yanked volume) must surface as a
// failure, never as exit-0 beside a silently truncated artifact.
func (a *Artifact) Flush(render func(io.Writer)) error {
	var buf strings.Builder
	render(&buf)
	if a.file == nil {
		_, err := io.WriteString(a.out, buf.String())
		return err
	}
	if _, err := io.WriteString(a.file, buf.String()); err != nil {
		a.file.Close()
		return err
	}
	return a.file.Close()
}

// Table is a simple column-aligned text table. The JSON tags mirror
// the Table.JSON rendering so a Table embedded in an API response
// marshals with the same keys.
type Table struct {
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	av := v
	if av < 0 {
		av = -av
	}
	switch {
	case av == 0:
		return "0"
	case av >= 1000:
		return fmt.Sprintf("%.0f", v)
	case av >= 10:
		return fmt.Sprintf("%.1f", v)
	case av >= 0.01:
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.2e", v)
	}
}

// Render writes the aligned table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintln(w, t.Title)
	}
	var sep strings.Builder
	for i, h := range t.Headers {
		fmt.Fprintf(w, "%-*s  ", widths[i], h)
		sep.WriteString(strings.Repeat("-", widths[i]) + "  ")
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.TrimRight(sep.String(), " "))
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) {
				fmt.Fprintf(w, "%-*s  ", widths[i], c)
			}
		}
		fmt.Fprintln(w)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

// CSV renders the table as RFC-4180-ish CSV.
func (t *Table) CSV() string {
	var b strings.Builder
	writeCSVRow(&b, t.Headers)
	for _, r := range t.Rows {
		writeCSVRow(&b, r)
	}
	return b.String()
}

func writeCSVRow(b *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		if strings.ContainsAny(c, ",\"\n") {
			b.WriteString(`"` + strings.ReplaceAll(c, `"`, `""`) + `"`)
		} else {
			b.WriteString(c)
		}
	}
	b.WriteByte('\n')
}

// JSON renders the table as a JSON object: {"title", "headers",
// "rows"} with rows as arrays of (formatted) cell strings. Cells keep
// the same formatting as the text renderer so the two outputs agree.
func (t *Table) JSON() string {
	headers := t.Headers
	if headers == nil {
		headers = []string{}
	}
	rows := t.Rows
	if rows == nil {
		rows = [][]string{}
	}
	b, err := json.Marshal(struct {
		Title   string     `json:"title"`
		Headers []string   `json:"headers"`
		Rows    [][]string `json:"rows"`
	}{t.Title, headers, rows})
	if err != nil { // strings-only payload: cannot happen
		panic(err)
	}
	return string(b)
}

// Markdown renders the table as a GitHub-flavored markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	b.WriteString("| " + strings.Join(t.Headers, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat(" --- |", len(t.Headers)) + "\n")
	for _, r := range t.Rows {
		b.WriteString("| " + strings.Join(r, " | ") + " |\n")
	}
	return b.String()
}

// Bars renders a horizontal ASCII bar chart for label/value pairs —
// enough to eyeball the figure-style results in a terminal.
func Bars(w io.Writer, title string, labels []string, values []float64, unit string) {
	if title != "" {
		fmt.Fprintln(w, title)
	}
	var max float64
	lw := 0
	for i, v := range values {
		if v > max {
			max = v
		}
		if len(labels[i]) > lw {
			lw = len(labels[i])
		}
	}
	const width = 46
	for i, v := range values {
		n := 0
		if max > 0 {
			n = int(v / max * width)
		}
		fmt.Fprintf(w, "  %-*s %s %s %s\n", lw, labels[i],
			strings.Repeat("#", n), formatFloat(v), unit)
	}
}
