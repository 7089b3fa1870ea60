package table

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func sample() *Table {
	t := New("T", []string{"rank", "ops", "time"})
	t.Rows = [][]string{
		{"0", "10", "1.5"},
		{"1", "20", "0.5"},
		{"2", "30", "2.5"},
		{"0", "5", "0.25"},
	}
	return t
}

func TestAppendValidates(t *testing.T) {
	tb := New("T", []string{"a", "b"})
	if err := tb.Append([]string{"1"}); err == nil {
		t.Error("short row accepted")
	}
	if err := tb.Append([]string{"1", "2"}); err != nil {
		t.Errorf("valid row rejected: %v", err)
	}
	if tb.NumRows() != 1 {
		t.Errorf("rows = %d", tb.NumRows())
	}
}

func TestTypedAccess(t *testing.T) {
	tb := sample()
	if v, err := tb.Int(1, "ops"); err != nil || v != 20 {
		t.Errorf("Int = %d, %v", v, err)
	}
	if v, err := tb.Float(2, "time"); err != nil || v != 2.5 {
		t.Errorf("Float = %v, %v", v, err)
	}
	if _, err := tb.Int(0, "nope"); err == nil || !strings.Contains(err.Error(), "no column") {
		t.Errorf("missing column error: %v", err)
	}
	if _, err := tb.Int(99, "ops"); err == nil {
		t.Error("out of range row accepted")
	}
	if _, err := tb.Int(0, "time"); err == nil {
		t.Error("float parsed as int")
	}
}

func TestAggregates(t *testing.T) {
	tb := sample()
	if s, err := tb.SumInt("ops"); err != nil || s != 65 {
		t.Errorf("SumInt = %d, %v", s, err)
	}
	if s, err := tb.SumFloat("time"); err != nil || s != 4.75 {
		t.Errorf("SumFloat = %v, %v", s, err)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tb := sample()
	var buf bytes.Buffer
	if err := tb.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read("T", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != tb.NumRows() || len(got.Cols) != len(tb.Cols) {
		t.Fatalf("shape changed: %dx%d", got.NumRows(), len(got.Cols))
	}
	for i := range tb.Rows {
		for j := range tb.Cols {
			if got.Rows[i][j] != tb.Rows[i][j] {
				t.Errorf("cell (%d,%d) changed: %q vs %q", i, j, got.Rows[i][j], tb.Rows[i][j])
			}
		}
	}
}

func TestCSVRoundTripQuoting(t *testing.T) {
	tb := New("Q", []string{"name", "v"})
	rows := [][]string{
		{"file,with,commas", "1"},
		{`quoted "name"`, "2"},
		{"line\nbreak", "3"},
	}
	for _, r := range rows {
		if err := tb.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := tb.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read("Q", &buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		for j := range r {
			if got.Rows[i][j] != r[j] {
				t.Errorf("quoting broke cell (%d,%d): %q", i, j, got.Rows[i][j])
			}
		}
	}
}

func TestReadRejectsEmpty(t *testing.T) {
	if _, err := Read("E", strings.NewReader("")); err == nil {
		t.Error("empty CSV accepted")
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/t.csv"
	tb := sample()
	if err := tb.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 4 {
		t.Errorf("rows = %d", got.NumRows())
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Any table of printable cells survives a CSV round trip.
	f := func(cells [][3]string) bool {
		tb := New("P", []string{"a", "b", "c"})
		for _, row := range cells {
			// csv cannot represent bare \r in all cases; normalize.
			r := []string{sanitize(row[0]), sanitize(row[1]), sanitize(row[2])}
			if err := tb.Append(r); err != nil {
				return false
			}
		}
		var buf bytes.Buffer
		if err := tb.Write(&buf); err != nil {
			return false
		}
		got, err := Read("P", &buf)
		if err != nil {
			return false
		}
		if got.NumRows() != tb.NumRows() {
			return false
		}
		for i := range tb.Rows {
			for j := range tb.Cols {
				if got.Rows[i][j] != tb.Rows[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		if r == '\r' {
			return ' '
		}
		return r
	}, s)
}
