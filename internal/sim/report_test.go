package sim

import (
	"fmt"
	"strings"
	"testing"
)

// TestTableWriteMatchesSprintfPadding: each row Write renders is what
// padding every cell with fmt's "%-*s", joining with two spaces and trimming
// trailing spaces gives — for cells wider in bytes than in runes, a cell that
// ends in spaces, an empty last column and a row shorter than the header.
func TestTableWriteMatchesSprintfPadding(t *testing.T) {
	tbl := Table{
		ID:     "t",
		Title:  "padding",
		Header: []string{"name", "µs", "note"},
		Rows: [][]string{
			{"≈ 3 % loss", "12", "—"},
			{"a", "1.5  ", ""},
			{"short row"},
			{"", "", "last"},
		},
	}
	widths := make([]int, len(tbl.Header))
	for _, row := range append([][]string{tbl.Header}, tbl.Rows...) {
		for i, c := range row {
			widths[i] = max(widths[i], len(c))
		}
	}
	var want strings.Builder
	fmt.Fprintf(&want, "== %s: %s ==\n", tbl.ID, tbl.Title)
	for _, row := range append([][]string{tbl.Header}, tbl.Rows...) {
		parts := make([]string, len(row))
		for i, c := range row {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(&want, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	fmt.Fprintln(&want)

	var got strings.Builder
	if err := tbl.Write(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("Write gave\n%s\nSprintf padding gives\n%s", got.String(), want.String())
	}
}
