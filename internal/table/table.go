// Package table provides a small typed-access CSV table used across the
// ION pipeline: the Extractor writes module tables as CSV, the analysis
// interpreter and the Drishti baseline consume them, and the simulated
// expert model reads them back when "executing" generated code.
package table

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
)

// Table is an in-memory CSV table: a header row plus string cells with
// typed accessors.
type Table struct {
	Name string
	Cols []string
	Rows [][]string

	colIdx map[string]int
	// cellBytes tracks the bytes appended through Append, used to
	// size-estimate render buffers. Rows added by bypassing Append are
	// not counted; the estimate is advisory.
	cellBytes int
}

// New returns an empty table with the given column header.
func New(name string, cols []string) *Table {
	t := &Table{Name: name, Cols: append([]string(nil), cols...)}
	t.reindex()
	return t
}

func (t *Table) reindex() {
	t.colIdx = make(map[string]int, len(t.Cols))
	for i, c := range t.Cols {
		t.colIdx[c] = i
	}
}

// Append adds a row; the row length must match the header.
func (t *Table) Append(row []string) error {
	if len(row) != len(t.Cols) {
		return fmt.Errorf("table %s: row has %d cells, header has %d", t.Name, len(row), len(t.Cols))
	}
	for _, c := range row {
		t.cellBytes += len(c) + 1
	}
	t.Rows = append(t.Rows, row)
	return nil
}

// Grow preallocates capacity for at least n additional rows.
func (t *Table) Grow(n int) {
	if free := cap(t.Rows) - len(t.Rows); free < n {
		rows := make([][]string, len(t.Rows), len(t.Rows)+n)
		copy(rows, t.Rows)
		t.Rows = rows
	}
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.Rows) }

// HasCol reports whether the column exists.
func (t *Table) HasCol(col string) bool {
	_, ok := t.colIdx[col]
	return ok
}

// ColIndex returns the index of a column, or an error naming the table.
func (t *Table) ColIndex(col string) (int, error) {
	i, ok := t.colIdx[col]
	if !ok {
		return 0, fmt.Errorf("table %s: no column %q", t.Name, col)
	}
	return i, nil
}

// Value returns the cell at (row, col). It returns an error for an
// unknown column or out-of-range row.
func (t *Table) Value(row int, col string) (string, error) {
	i, err := t.ColIndex(col)
	if err != nil {
		return "", err
	}
	if row < 0 || row >= len(t.Rows) {
		return "", fmt.Errorf("table %s: row %d out of range [0,%d)", t.Name, row, len(t.Rows))
	}
	return t.Rows[row][i], nil
}

// Int returns the cell parsed as int64.
func (t *Table) Int(row int, col string) (int64, error) {
	s, err := t.Value(row, col)
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("table %s: %s[%d] = %q is not an integer", t.Name, col, row, s)
	}
	return v, nil
}

// Float returns the cell parsed as float64.
func (t *Table) Float(row int, col string) (float64, error) {
	s, err := t.Value(row, col)
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("table %s: %s[%d] = %q is not a number", t.Name, col, row, s)
	}
	return v, nil
}

// SumInt sums an integer column.
func (t *Table) SumInt(col string) (int64, error) {
	var sum int64
	for i := range t.Rows {
		v, err := t.Int(i, col)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// SumFloat sums a numeric column.
func (t *Table) SumFloat(col string) (float64, error) {
	var sum float64
	for i := range t.Rows {
		v, err := t.Float(i, col)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// maxPooledRenderBytes caps the capacity of buffers returned to the
// render pool, so one huge table doesn't pin its buffer forever.
const maxPooledRenderBytes = 1 << 22

// renderBufs pools CSV render buffers across Write calls.
var renderBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// renderEstimate predicts the rendered CSV size from the bytes that
// flowed through Append, so the pooled buffer grows once up front.
func (t *Table) renderEstimate() int {
	n := 1
	for _, c := range t.Cols {
		n += len(c) + 1
	}
	return n + t.cellBytes
}

// Write serializes the table as CSV (header first). Rendering goes
// through a pooled, size-estimated buffer so the caller's writer sees
// a single Write call and repeated renders reuse their scratch space.
func (t *Table) Write(w io.Writer) error {
	buf := renderBufs.Get().(*bytes.Buffer)
	buf.Reset()
	buf.Grow(t.renderEstimate())
	err := t.render(buf)
	if err == nil {
		if _, werr := w.Write(buf.Bytes()); werr != nil {
			err = fmt.Errorf("table %s: writing: %w", t.Name, werr)
		}
	}
	if buf.Cap() <= maxPooledRenderBytes {
		renderBufs.Put(buf)
	}
	return err
}

func (t *Table) render(buf *bytes.Buffer) error {
	cw := csv.NewWriter(buf)
	if err := cw.Write(t.Cols); err != nil {
		return fmt.Errorf("table %s: writing header: %w", t.Name, err)
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("table %s: writing row: %w", t.Name, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("table %s: flushing: %w", t.Name, err)
	}
	return nil
}

// WriteFile writes the table as a CSV file.
func (t *Table) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("table %s: %w", t.Name, err)
	}
	if err := t.Write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("table %s: closing %s: %w", t.Name, path, err)
	}
	return nil
}

// Read parses a CSV stream into a table.
func Read(name string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	// Leave FieldsPerRecord at its default: every row must match the
	// header's width, so truncated or ragged files fail loudly instead
	// of silently losing columns.
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("table %s: %w", name, err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("table %s: empty CSV (no header)", name)
	}
	t := New(name, records[0])
	for _, row := range records[1:] {
		if err := t.Append(row); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// ReadFile loads a CSV file into a table named after the file.
func ReadFile(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("table: %w", err)
	}
	defer f.Close()
	return Read(path, f)
}
