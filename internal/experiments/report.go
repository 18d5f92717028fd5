package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"text/tabwriter"
)

// Report is one experiment's result as data. Experiments fill Paper, Tables
// and Notes; Experiment.Run adds Title and Headline from the registry.
type Report struct {
	Title string
	// Paper holds the paper's reference values for the numbers below.
	Paper  string
	Tables []*Table
	Notes  []string
	// Headline names the one cell benchmarks report for this experiment.
	Headline Ref
}

// Table is named columns over labelled rows; Columns[0] heads the labels. A
// report with a single table leaves Name empty.
type Table struct {
	Name    string
	Columns []string
	Rows    []Row
}

// Row is one labelled line of a table. It may hold fewer cells than the
// table has columns.
type Row struct {
	Label string
	Cells []Cell
}

// Cell is a number beside the format it prints with (V is the printed
// number: a percentage is stored as 88.2, not 0.882), or, with an empty
// Format, plain Text.
type Cell struct {
	V      float64
	Format string
	Text   string
}

// Ref addresses one cell of a report by table name, row label and column
// name.
type Ref struct{ Table, Row, Col string }

func num(format string, v float64) Cell { return Cell{V: v, Format: format} }

func count[T int | uint64](v T) Cell { return num("%.0f", float64(v)) }

func pct(format string, fraction float64) Cell { return num(format+"%%", fraction*100) }

func text(s string) Cell { return Cell{Text: s} }

func (c Cell) String() string {
	if c.Format == "" {
		return c.Text
	}
	return fmt.Sprintf(c.Format, c.V)
}

// table appends an empty table to the report and returns it for row calls.
func (r *Report) table(name string, columns ...string) *Table {
	t := &Table{Name: name, Columns: columns}
	r.Tables = append(r.Tables, t)
	return t
}

func (t *Table) row(label string, cells ...Cell) {
	t.Rows = append(t.Rows, Row{Label: label, Cells: cells})
}

// Lookup returns the cell ref addresses and whether it exists. An empty
// ref.Row is the table's last row (a series' final sample); when labels
// repeat, the first match counts.
func (r Report) Lookup(ref Ref) (Cell, bool) {
	for _, t := range r.Tables {
		if t.Name != ref.Table {
			continue
		}
		col := slices.Index(t.Columns, ref.Col) - 1
		for i, row := range t.Rows {
			last := ref.Row == "" && i == len(t.Rows)-1
			if (row.Label == ref.Row || last) && col >= 0 && col < len(row.Cells) {
				return row.Cells[col], true
			}
		}
	}
	return Cell{}, false
}

// Print renders the report: the title with the paper's reference values,
// each table right-aligned in columns as wide as their widest cell, then
// the notes. It is the only text layout the registered experiments have.
func (r Report) Print(w io.Writer) {
	title := r.Title
	if r.Paper != "" {
		title += " (paper: " + r.Paper + ")"
	}
	fmt.Fprintln(w, title)
	for _, t := range r.Tables {
		if t.Name != "" {
			fmt.Fprintf(w, "-- %s --\n", t.Name)
		}
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, strings.Join(t.Columns, "\t")+"\t")
		for _, row := range t.Rows {
			fmt.Fprint(tw, row.Label, "\t")
			for i := range t.Columns[1:] {
				if i < len(row.Cells) {
					fmt.Fprint(tw, row.Cells[i])
				}
				fmt.Fprint(tw, "\t")
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, n)
	}
}
