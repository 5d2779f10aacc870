// Package experiments regenerates every table of the paper's evaluation
// (Tables 1-12) plus the Section 4.1.3 interconnect-bandwidth study. Each
// driver runs the required simulations and returns a Table holding both the
// measured values and the paper's published values, so the two can be
// printed side by side.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/machine"
	"repro/internal/runpool"
)

// Options tune an experiment run. Zero means default, as in every other
// options struct here: NumTxns == 0 and Seed == 0 take the
// machine.DefaultConfig values (the full 40 transactions, seed 1985).
type Options struct {
	// NumTxns is the transaction count per simulation (0 = default).
	NumTxns int
	// Seed is the base random seed (0 = default).
	Seed int64
	// Jobs is the worker count for fanning a table's independent simulation
	// cells out through internal/runpool (< 1 = GOMAXPROCS). Every cell owns
	// its own seeded engine and results are collected in submission order,
	// so any value renders byte-identical tables.
	Jobs int
}

func (o Options) apply(cfg machine.Config) machine.Config {
	if o.NumTxns > 0 {
		cfg.NumTxns = o.NumTxns
	}
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	return cfg
}

// runCells executes n independent machine simulations through the run pool
// and returns the results in cell order. Cell i is described by mk(i),
// which must build a fresh Config and Model (models carry per-run state);
// mk runs on pool workers, so it must not touch shared mutable state.
func runCells(opt Options, n int, mk func(i int) (machine.Config, machine.Model)) ([]*machine.Result, error) {
	return runpool.Map(opt.Jobs, n, func(i int) (*machine.Result, error) {
		cfg, mdl := mk(i)
		return machine.Run(cfg, mdl)
	})
}

// Table is one regenerated evaluation table.
type Table struct {
	ID      string
	Title   string
	Columns []string   // first column is the row label
	Rows    [][]string // measured values
	Paper   [][]string // the paper's published values (same shape; may be nil)
	Notes   string
}

// Render formats the table (and the paper's values, if present) as ASCII.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", strings.ToUpper(t.ID), t.Title)
	b.WriteString(renderGrid(t.Columns, t.Rows))
	if t.Paper != nil {
		b.WriteString("paper reported:\n")
		b.WriteString(renderGrid(t.Columns, t.Paper))
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}

// RenderMarkdown formats the table as GitHub-flavoured markdown, with the
// paper's published values interleaved as "(paper X)" where available.
func (t *Table) RenderMarkdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", strings.ToUpper(t.ID), t.Title)
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
	for ri, r := range t.Rows {
		cells := make([]string, len(r))
		copy(cells, r)
		if t.Paper != nil && ri < len(t.Paper) {
			for ci := 1; ci < len(cells) && ci < len(t.Paper[ri]); ci++ {
				cells[ci] = fmt.Sprintf("%s *(paper %s)*", cells[ci], t.Paper[ri][ci])
			}
		}
		b.WriteString("| " + strings.Join(cells, " | ") + " |\n")
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "\n*%s*\n", t.Notes)
	}
	b.WriteString("\n")
	return b.String()
}

func renderGrid(cols []string, rows [][]string) string {
	// widths covers the widest row, not just the header, so a ragged row
	// with more cells than columns renders instead of indexing out of range.
	widths := make([]int, len(cols))
	for i, c := range cols {
		widths[i] = len(c)
	}
	for _, r := range rows {
		for i, c := range r {
			for i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(cols)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

// configCase is one of the paper's four standard machine configurations.
type configCase struct {
	Name       string
	Sequential bool
	Parallel   bool
}

// fourConfigs are the paper's standard configurations, in table order.
var fourConfigs = []configCase{
	{"Conventional-Random", false, false},
	{"Parallel-Random", false, true},
	{"Conventional-Sequential", true, false},
	{"Parallel-Sequential", true, true},
}

func (c configCase) config(opt Options) machine.Config {
	cfg := machine.DefaultConfig()
	cfg.Workload.Sequential = c.Sequential
	cfg.ParallelDisks = c.Parallel
	return opt.apply(cfg)
}

func ms(v float64) string { return fmt.Sprintf("%.1f", v) }

func ratio(v float64) string { return fmt.Sprintf("%.2f", v) }

// Runner is a named experiment driver.
type Runner func(Options) (*Table, error)

// registry maps experiment IDs to drivers.
var registry = map[string]Runner{
	"table1":    Table1,
	"table2":    Table2,
	"table3":    Table3,
	"table4":    Table4,
	"table5":    Table5,
	"table6":    Table6,
	"table7":    Table7,
	"table8":    Table8,
	"table9":    Table9,
	"table10":   Table10,
	"table11":   Table11,
	"table12":   Table12,
	"bandwidth": Bandwidth,
}

// Run executes the experiment with the given ID ("table1".."table12",
// "bandwidth").
func Run(id string, opt Options) (*Table, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %s)",
			id, strings.Join(IDs(), ", "))
	}
	return r(opt)
}

// RunAll executes every experiment named in ids through the run pool,
// fanning whole tables out across workers (each table additionally fans its
// own cells out, so small tables cannot serialize the batch). Tables come
// back in ids order; the first failing table (lowest index) reports the
// error.
func RunAll(ids []string, opt Options) ([]*Table, error) {
	return runpool.Map(opt.Jobs, len(ids), func(i int) (*Table, error) {
		tab, err := Run(ids[i], opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ids[i], err)
		}
		return tab, nil
	})
}

// IDs lists the registered experiment IDs in a stable order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		// table2 < table10 numerically.
		ni, errI := idOrder(out[i])
		nj, errJ := idOrder(out[j])
		if errI == nil && errJ == nil {
			return ni < nj
		}
		if (errI == nil) != (errJ == nil) {
			return errI == nil
		}
		return out[i] < out[j]
	})
	return out
}

func idOrder(id string) (int, error) {
	var n int
	_, err := fmt.Sscanf(id, "table%d", &n)
	return n, err
}
