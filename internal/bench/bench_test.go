package bench

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// TestAllQuickExperimentsProduceTables runs every registered experiment at
// quick scale: each returns a full table under its registry id, and no row of
// a table with an exactness column (shmem, statsd) reads "NO" — the bit-exact
// comparison against the serial oracle held.
func TestAllQuickExperimentsProduceTables(t *testing.T) {
	for i, tb := range All(true) {
		if tb.ID != experiments[i].id {
			t.Errorf("experiment %q returned table %q", experiments[i].id, tb.ID)
		}
		if tb.ID == "" || tb.Title == "" || len(tb.Columns) == 0 || len(tb.Rows) == 0 {
			t.Errorf("experiment %q produced an empty table: %+v", tb.ID, tb)
		}
		exact := slices.Index(tb.Columns, "exact")
		for _, row := range tb.Rows {
			if len(row) != len(tb.Columns) {
				t.Errorf("%s: row width %d != %d columns: %v", tb.ID, len(row), len(tb.Columns), row)
			} else if exact >= 0 && row[exact] != "yes" {
				t.Errorf("%s: inexact row: %v", tb.ID, row)
			}
		}
	}
}

func TestByIDCoversAll(t *testing.T) {
	for _, e := range experiments {
		if ByID(e.id) == nil {
			t.Errorf("ByID(%q) missing", e.id)
		}
	}
	if ByID("nope") != nil {
		t.Error("unknown id should return nil")
	}
}

func TestRenderAndCSV(t *testing.T) {
	tb := Sec2Stencil(true)
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "sec2") || !strings.Contains(out, "Pure + Tasks") {
		t.Errorf("render output missing content:\n%s", out)
	}
	buf.Reset()
	if err := tb.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(tb.Rows) {
		t.Errorf("csv has %d lines, want %d", len(lines), 1+len(tb.Rows))
	}
}

func TestFormattersRoundNumbers(t *testing.T) {
	if ns(1500000000) != "1.5s" || ns(2500000) != "2.5ms" || ns(1500) != "1.5us" || ns(999) != "999ns" {
		t.Errorf("ns formatting wrong: %s %s %s %s", ns(1500000000), ns(2500000), ns(1500), ns(999))
	}
	if bytesLabel(4) != "4B" || bytesLabel(2048) != "2kB" || bytesLabel(1<<21) != "2MB" {
		t.Errorf("bytesLabel wrong")
	}
	if ratio(200, 100) != "2.00x" || ratio(1, 0) != "-" {
		t.Errorf("ratio wrong")
	}
}

func TestFig4SpeedupShapeInQuickMode(t *testing.T) {
	tb := Fig4DT(true)
	// Row: class A; columns: class, ranks, MPI, noTasks, +Tasks, +Helpers.
	row := tb.Rows[0]
	if row[0] != "A" || row[1] != "80" {
		t.Fatalf("unexpected row: %v", row)
	}
	for _, cell := range []string{row[3], row[4], row[5]} {
		if !strings.HasSuffix(cell, "x") {
			t.Errorf("speedup cell %q not a ratio", cell)
		}
	}
}
