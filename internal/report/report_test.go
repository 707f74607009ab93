package report

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tab := NewTable("Table X", "m", "k", "Accuracy")
	tab.AddRow("16", "4", "99.45%")
	tab.AddRow("8", "2", "95.57%")
	s := tab.String()
	if !strings.HasPrefix(s, "Table X\n") {
		t.Errorf("missing title:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), s)
	}
	// Columns align: "Accuracy" starts at the same offset in every row.
	idx := strings.Index(lines[1], "Accuracy")
	if !strings.HasPrefix(lines[3][idx:], "99.45%") {
		t.Errorf("column misaligned:\n%s", s)
	}
}

func TestTableRowPaddingAndTruncation(t *testing.T) {
	tab := NewTable("", "a", "b")
	tab.AddRow("1")           // short row pads
	tab.AddRow("1", "2", "3") // long row truncates
	s := tab.String()
	if strings.Contains(s, "3") {
		t.Errorf("extra cell not dropped:\n%s", s)
	}
	if len(strings.Split(strings.TrimRight(s, "\n"), "\n")) != 4 {
		t.Errorf("unexpected line count:\n%s", s)
	}
}

func TestBarChart(t *testing.T) {
	c := NewBarChart("Figure 4", "MB/sec", 10)
	c.Add("Async", 470)
	c.Add("Sync", 228)
	s := c.String()
	if !strings.Contains(s, "Figure 4") {
		t.Errorf("missing title:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	asyncHashes := strings.Count(lines[1], "#")
	syncHashes := strings.Count(lines[2], "#")
	if asyncHashes != 10 {
		t.Errorf("max bar = %d chars, want full width 10", asyncHashes)
	}
	if syncHashes >= asyncHashes || syncHashes == 0 {
		t.Errorf("bars not proportional: %d vs %d", asyncHashes, syncHashes)
	}
	if !strings.Contains(s, "470.0 MB/sec") {
		t.Errorf("value/unit missing:\n%s", s)
	}
}

func TestBarChartZeroValues(t *testing.T) {
	c := NewBarChart("", "x", 5)
	c.Add("zero", 0)
	s := c.String()
	if strings.Contains(s, "#") {
		t.Errorf("zero-value bar rendered hashes:\n%s", s)
	}
}

func TestBarChartDefaultWidth(t *testing.T) {
	c := NewBarChart("", "u", 0)
	c.Add("a", 1)
	if n := strings.Count(c.String(), "#"); n != 50 {
		t.Errorf("default width = %d, want 50", n)
	}
}

func TestPercent(t *testing.T) {
	if got := Percent(0.9945); got != "99.45%" {
		t.Errorf("Percent = %q", got)
	}
}
