package experiments

import (
	"fmt"
	"math"
	"testing"
)

// check is one line of the paper-fidelity table: a cell of an experiment's
// Report against the paper's value (rel "≈", within tol) or a bound (rel
// "<" "≤" ">" "≥"), either the constant paper or, when than is set, another
// cell of the same report times `times` (0 means 1). at.Row "*" applies the
// relation to every row of the column (than.Row "*" is then the same row);
// rel "↑" / "↓" states the column is non-decreasing / non-increasing down
// those rows. Where this reproduction departs from the paper the row
// asserts the departure and the note says why, so it cannot drift silently.
type check struct {
	exp   string
	at    Ref
	rel   string
	paper float64
	tol   float64
	than  Ref
	times float64
	note  string
}

var fidelity = []check{
	// Table 6: metadata bits per object, pure arithmetic — exact.
	{exp: "tab6", at: Ref{Row: "FairyWREN", Col: "total"}, rel: "≈", paper: 9.9, tol: 0.05},
	{exp: "tab6", at: Ref{Row: "Naive Nemo", Col: "total"}, rel: "≈", paper: 30.4, tol: 0.05},
	{exp: "tab6", at: Ref{Row: "Nemo", Col: "total"}, rel: "≈", paper: 8.3, tol: 0.05},

	// Figure 12a: Nemo 1.56, Log 1.08, FW 15.2, Set 16.31, KG 55.59.
	{exp: "fig12a", at: Ref{Row: "Nemo", Col: "ALWA"}, rel: "≤", paper: 1.56},
	{exp: "fig12a", at: Ref{Row: "Nemo", Col: "ALWA"}, rel: "≥", paper: 1.0},
	{exp: "fig12a", at: Ref{Row: "Nemo", Col: "ALWA"}, rel: "≈", paper: 1.12, tol: 0.05,
		note: "departure: 1.12 here against 1.56 — 1/fill (Eq. 9) is 1.07 here (fill 93.4%, abl-sgsize) and 1.12 in the paper (89.34%); the rest of the paper's 1.56 is hot-object writeback and index writes, which add 0.05 here (1,273 objects written back in 400k ops, abl-cooling)"},
	{exp: "fig12a", at: Ref{Row: "Nemo", Col: "ALWA"}, rel: "<", than: Ref{Row: "Set", Col: "ALWA"}},
	{exp: "fig12a", at: Ref{Row: "Nemo", Col: "ALWA"}, rel: "<", than: Ref{Row: "FW", Col: "ALWA"}},
	{exp: "fig12a", at: Ref{Row: "Nemo", Col: "ALWA"}, rel: "<", than: Ref{Row: "KG", Col: "ALWA"}},
	{exp: "fig12a", at: Ref{Row: "Log", Col: "ALWA"}, rel: "≈", paper: 1.08, tol: 0.03},
	{exp: "fig12a", at: Ref{Row: "Set", Col: "totalWA"}, rel: "≥", than: Ref{Row: "Nemo", Col: "totalWA"}, times: 5},
	{exp: "fig12a", at: Ref{Row: "FW", Col: "totalWA"}, rel: "≥", than: Ref{Row: "Nemo", Col: "totalWA"}, times: 5},
	{exp: "fig12a", at: Ref{Row: "KG", Col: "totalWA"}, rel: "≥", than: Ref{Row: "Nemo", Col: "totalWA"}, times: 5},
	{exp: "fig12a", at: Ref{Row: "KG", Col: "totalWA"}, rel: ">", than: Ref{Row: "Set", Col: "totalWA"}, note: "paper 55.59 > 16.31"},
	{exp: "fig12a", at: Ref{Row: "Set", Col: "totalWA"}, rel: ">", than: Ref{Row: "FW", Col: "totalWA"}, note: "paper 16.31 > 15.2"},

	// Figure 12b: Nemo 1.56, OP20 9.29, OP50 6.56, Log20 4.12.
	{exp: "fig12b", at: Ref{Row: "Nemo", Col: "WA"}, rel: "<", than: Ref{Row: "Log20-OP5", Col: "WA"}},
	{exp: "fig12b", at: Ref{Row: "Log20-OP5", Col: "WA"}, rel: "<", than: Ref{Row: "Log5-OP20", Col: "WA"}},
	{exp: "fig12b", at: Ref{Row: "Log20-OP5", Col: "WA"}, rel: "<", than: Ref{Row: "Log5-OP50", Col: "WA"}},
	{exp: "fig12b", at: Ref{Row: "Log20-OP5", Col: "WA"}, rel: "≈", paper: 4.12, tol: 0.5},
	{exp: "fig12b", at: Ref{Row: "Log5-OP50", Col: "WA"}, rel: "≥", than: Ref{Row: "Log5-OP20", Col: "WA"},
		note: "departure: OP50 (9.51) is not below OP20 (9.48) as in the paper (6.56 < 9.29) — FW sizes its set tier without the freeGoal reserve (ROADMAP, FairyWREN item), so at OP50 GC chases a goal a live tier cannot reach and active migration rises (p 0.76 against OP20's 0.88) where Observation 4 has it vanish"},

	// Figure 16: Nemo's miss ratio ends at or below FairyWREN's.
	{exp: "fig16", at: Ref{Table: "final miss ratio", Row: "Nemo", Col: "miss"}, rel: "≤", than: Ref{Table: "final miss ratio", Row: "FW", Col: "miss"}},

	// Figure 17: fill 6.78 / 31.32 / 36.77 / 64.13 / 89.34 % for naive / B / P / B+P / B+P+W.
	{exp: "fig17", at: Ref{Row: "naive", Col: "fill"}, rel: "≤", than: Ref{Row: "B", Col: "fill"}},
	{exp: "fig17", at: Ref{Row: "B", Col: "fill"}, rel: "≤", than: Ref{Row: "B+P", Col: "fill"}},
	{exp: "fig17", at: Ref{Row: "B+P", Col: "fill"}, rel: "≤", than: Ref{Row: "B+P+W", Col: "fill"}},
	{exp: "fig17", at: Ref{Row: "B+P+W", Col: "fill"}, rel: "≈", paper: 89.34, tol: 2},
	{exp: "fig17", at: Ref{Row: "naive", Col: "fill"}, rel: "≈", paper: 36, tol: 3,
		note: "departure: 36% against 6.78% — 512 sets per SG here against 275,712, and first-set-full skew grows with the set count (fig8)"},
	{exp: "fig17", at: Ref{Row: "B", Col: "fill"}, rel: ">", than: Ref{Row: "P", Col: "fill"},
		note: "departure: B (66%) above P (54%) where the paper has P (36.77) above B (31.32) — p_th is 32 sacrificed objects at 512 sets per SG and fig18 shows new objects still rising at 4096, so P alone is budget-limited here and B is not"},
	{exp: "fig17", at: Ref{Row: "B+P+W", Col: "fill"}, rel: "≈", than: Ref{Row: "B+P", Col: "fill"}, tol: 0.005,
		note: "departure: W adds nothing at 400k ops (88.24 = 88.24); at the preset's 2M ops it is 89.92 against 87.03 (11 s, not run in tier-1)"},
	{exp: "fig17", at: Ref{Row: "*", Col: "WA"}, rel: "≥", than: Ref{Row: "*", Col: "1/fill"},
		note: "Eq. 9 is a floor: measured WA adds index pages and sacrificed objects to 1/fill"},

	// Figure 18: new objects rise and WA falls with p_th.
	{exp: "fig18", at: Ref{Row: "*", Col: "1st-SG objs"}, rel: "↑"},
	{exp: "fig18", at: Ref{Row: "*", Col: "WA"}, rel: "↓"},
	{exp: "fig18", at: Ref{Row: "1024", Col: "WA"}, rel: "<", paper: 1.0,
		note: "departure: WA below 1.0 at p_th ≥ 1024 (0.91) — sacrificed objects count as user bytes but are never written"},
	{exp: "fig18", at: Ref{Row: "4096", Col: "WA"}, rel: "≈", paper: 0.65, tol: 0.05, note: "departure, as above"},

	// Figure 19a: ≈70% of accesses go to the top 30% of sets.
	{exp: "fig19a", at: Ref{Row: "*", Col: "top30%"}, rel: "≈", paper: 70, tol: 6},

	// Figure 19b: PBFG miss ratio < 8% with half the PBFGs in DRAM.
	{exp: "fig19b", at: Ref{Row: "*", Col: "miss ratio"}, rel: "↓"},
	{exp: "fig19b", at: Ref{Row: "50%", Col: "miss ratio"}, rel: "<", paper: 8},
	{exp: "fig19b", at: Ref{Row: "*", Col: "lookups"}, rel: ">", paper: 0, note: "a run too short to evict reads 0/0 on every row"},

	// §3.2: measured FairyWREN against Eq. 6 and Eq. 1 evaluated at the run's geometry.
	{exp: "sec32", at: Ref{Table: "this run", Row: "L2SWA(P)", Col: "measured"}, rel: "≤", than: Ref{Table: "this run", Row: "L2SWA(P)", Col: "theory"}},
	{exp: "sec32", at: Ref{Table: "this run", Row: "L2SWA(P)", Col: "measured"}, rel: "≥", than: Ref{Table: "this run", Row: "L2SWA(P)", Col: "theory"}, times: 0.5,
		note: "Eq. 6 assumes E(L_i) objects per passive write (1.01); the log's 1.73 measured batch halves it"},
	{exp: "sec32", at: Ref{Table: "this run", Row: "total WA (Eq. 1 with p)", Col: "measured"}, rel: "≈", paper: 9.73, tol: 0.3,
		note: "departure: 9.73 against Eq. 1's 15.32, the same batch-size gap"},
	{exp: "sec32", at: Ref{Table: "this run", Row: "total WA (Eq. 1 with p)", Col: "measured"}, rel: "≥", than: Ref{Table: "this run", Row: "total WA (Eq. 1 with p)", Col: "theory"}, times: 0.55},
	{exp: "sec32", at: Ref{Table: "this run", Row: "total WA (Eq. 1 with p)", Col: "measured"}, rel: "≤", than: Ref{Table: "this run", Row: "total WA (Eq. 1 with p)", Col: "theory"}},
	{exp: "sec32", at: Ref{Table: "paper scale: 360 GB, Log5-OP5, 246 B objects, p = 0.25", Row: "L2SWA(P) (Eq. 6)", Col: "theory"}, rel: "≈", paper: 9.025, tol: 0.01,
		note: "(1−X)·N_Set / (2·N_Log) = 0.95·0.95 / 0.1"},

	// §5.5: Nemo reads > 3× FairyWREN's flash bytes per hit.
	{exp: "sec55", at: Ref{Table: "flash reads per hit", Row: "Nemo / FW", Col: "value"}, rel: "≈", paper: 0.91, tol: 0.05,
		note: "departure: 0.91× against > 3× — at 56 zones every PBFG page a lookup needs is in the DRAM cache (fig19b: 0.02% misses at 50%), so a hit costs one set read, as FW's does"},

	// §5.5 / Table 6: Nemo's index metadata as the engine holds it, against
	// the paper's 8.3 bits/object.
	{exp: "sec55", at: Ref{Table: "Nemo memory measured (bits/obj)", Row: "Nemo", Col: "total"}, rel: "≈", paper: 52.1, tol: 2,
		note: "departure: 52.1 bits/object measured against 8.3 — the pool here is 52 data zones, so the one whole group buffer is 20.2 of it where Table 6 amortizes it to 0.8 over 360 GB; the PBFG cache is 21.9 (7.2 in the model): a filter is sized for the fullest set of its group's first SG, not the mean, and the cache's capacity, half of (groups + 1) × SetsPerSG pages, holds every page of this pool's one sealed group, not half; SG meta (set prefix sums for every SG, not hot bits for the tail only) is 10.0. It was 148.0 when every filter was sized for 40 objects"},

	// Figure 8: with 4 KB sets the other sets are mostly below 25% full.
	{exp: "fig8", at: Ref{Table: "set size 4096 B", Row: "*", Col: "real ≤25%"}, rel: "≥", paper: 90},

	// The sharded comparison (compare.go, `nemobench compare -scale small
	// -seed 1 -shards 1,2`): partitioning the same capacity moves no engine's
	// quality, and Nemo's ALWA is the lowest of the set-associative designs,
	// by 5× or more, at both shard counts.
	{exp: "compare", at: Ref{Table: "shards=2", Row: "*", Col: "hit%"}, rel: "≈", than: Ref{Table: "shards=1", Row: "*", Col: "hit%"}, tol: 0.5},
	{exp: "compare", at: Ref{Table: "shards=2", Row: "Nemo", Col: "ALWA"}, rel: "≈", than: Ref{Table: "shards=1", Row: "Nemo", Col: "ALWA"}, tol: 0.06,
		note: "0.71 against 0.75: two shards end the run with four in-memory SGs unflushed where one shard ends it with two; both are below 1 because sacrificed objects count as user bytes but are never written (fig18)"},
	{exp: "compare", at: Ref{Table: "shards=2", Row: "Log", Col: "ALWA"}, rel: "≈", than: Ref{Table: "shards=1", Row: "Log", Col: "ALWA"}, tol: 0.01},
	{exp: "compare", at: Ref{Table: "shards=2", Row: "Set", Col: "ALWA"}, rel: "≈", than: Ref{Table: "shards=1", Row: "Set", Col: "ALWA"}, tol: 0.05},
	{exp: "compare", at: Ref{Table: "shards=2", Row: "KG", Col: "ALWA"}, rel: "<", than: Ref{Table: "shards=1", Row: "KG", Col: "ALWA"},
		note: "departure: 5.98 against 7.65 — hlog.SplitZones gives every shard's HLog at least two zones, so two shards log in 4 of 48 zones where one logs in 2, and a larger log batches more objects per set write"},
	{exp: "compare", at: Ref{Table: "shards=2", Row: "KG", Col: "ALWA"}, rel: "≥", than: Ref{Table: "shards=1", Row: "KG", Col: "ALWA"}, times: 0.7},
	{exp: "compare", at: Ref{Table: "shards=2", Row: "FW", Col: "ALWA"}, rel: "<", than: Ref{Table: "shards=1", Row: "FW", Col: "ALWA"},
		note: "departure: 4.98 against 7.02, the same two-zone HLog floor"},
	{exp: "compare", at: Ref{Table: "shards=2", Row: "FW", Col: "ALWA"}, rel: "≥", than: Ref{Table: "shards=1", Row: "FW", Col: "ALWA"}, times: 0.6},
	{exp: "compare", at: Ref{Table: "shards=1", Row: "Nemo", Col: "ALWA"}, rel: "<", than: Ref{Table: "shards=1", Row: "Set", Col: "ALWA"}, times: 0.2},
	{exp: "compare", at: Ref{Table: "shards=1", Row: "Nemo", Col: "ALWA"}, rel: "<", than: Ref{Table: "shards=1", Row: "KG", Col: "ALWA"}, times: 0.2},
	{exp: "compare", at: Ref{Table: "shards=1", Row: "Nemo", Col: "ALWA"}, rel: "<", than: Ref{Table: "shards=1", Row: "FW", Col: "ALWA"}, times: 0.2},
	{exp: "compare", at: Ref{Table: "shards=2", Row: "Nemo", Col: "ALWA"}, rel: "<", than: Ref{Table: "shards=2", Row: "Set", Col: "ALWA"}, times: 0.2},
	{exp: "compare", at: Ref{Table: "shards=2", Row: "Nemo", Col: "ALWA"}, rel: "<", than: Ref{Table: "shards=2", Row: "KG", Col: "ALWA"}, times: 0.2},
	{exp: "compare", at: Ref{Table: "shards=2", Row: "Nemo", Col: "ALWA"}, rel: "<", than: Ref{Table: "shards=2", Row: "FW", Col: "ALWA"}, times: 0.2},
	{exp: "compare", at: Ref{Table: "shards=2", Row: "*", Col: "rderr"}, rel: "≈", paper: 0},
	{exp: "compare", at: Ref{Table: "shards=2", Row: "*", Col: "wrerr"}, rel: "≈", paper: 0},
}

// eval checks c against rep and describes the first violation.
func (c check) eval(rep Report) error {
	var rows []string
	for _, t := range rep.Tables {
		if t.Name != c.at.Table {
			continue
		}
		for _, r := range t.Rows {
			if c.at.Row == r.Label || c.at.Row == "*" {
				rows = append(rows, r.Label)
			}
		}
	}
	if len(rows) == 0 {
		return fmt.Errorf("no row %q in table %q", c.at.Row, c.at.Table)
	}
	prev := math.NaN()
	for _, row := range rows {
		at := Ref{Table: c.at.Table, Row: row, Col: c.at.Col}
		cell, ok := rep.Lookup(at)
		if !ok || cell.Format == "" {
			return fmt.Errorf("%+v is not a numeric cell", at)
		}
		v, rhs := cell.V, c.paper
		if c.than != (Ref{}) {
			than := c.than
			if than.Row == "*" {
				than.Row = row
			}
			other, ok := rep.Lookup(than)
			if !ok || other.Format == "" {
				return fmt.Errorf("%+v is not a numeric cell", than)
			}
			rhs = other.V
			if c.times != 0 {
				rhs *= c.times
			}
		}
		var holds bool
		switch c.rel {
		case "≈":
			holds = math.Abs(v-rhs) <= c.tol
		case "<":
			holds = v < rhs
		case "≤":
			holds = v <= rhs
		case ">":
			holds = v > rhs
		case "≥":
			holds = v >= rhs
		case "↑", "↓":
			holds = math.IsNaN(prev) || c.rel == "↑" && v >= prev || c.rel == "↓" && v <= prev
			rhs, prev = prev, v
		default:
			return fmt.Errorf("unknown relation %q", c.rel)
		}
		if !holds {
			return fmt.Errorf("%+v = %v, want %s %v (tol %v) %s", at, v, c.rel, rhs, c.tol, c.note)
		}
	}
	return nil
}

// TestPaperFidelity runs every registered experiment once at the small
// preset, and the sharded comparison at its small preset, and holds each
// Report to the table above. Every experiment must also yield at least one
// row and a headline cell that resolves. Under -short and under the race
// detector only the model and table experiments run (CI runs the whole
// table without -race).
func TestPaperFidelity(t *testing.T) {
	cheap := map[string]bool{"tab3": true, "tab4": true, "tab5": true, "tab6": true, "appA": true, "fig8": true}
	hold := func(id string, run func() (Report, error)) {
		t.Run(id, func(t *testing.T) {
			if (testing.Short() || raceEnabled) && !cheap[id] {
				t.Skip("replay experiment")
			}
			t.Parallel()
			rep, err := run()
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Tables) == 0 || len(rep.Tables[0].Rows) == 0 {
				t.Fatal("no rows")
			}
			if c, ok := rep.Lookup(rep.Headline); rep.Headline != (Ref{}) && (!ok || c.Format == "") {
				t.Errorf("headline %+v is not a numeric cell", rep.Headline)
			}
			for _, c := range fidelity {
				if c.exp != id {
					continue
				}
				if err := c.eval(rep); err != nil {
					t.Error(err)
				}
			}
		})
	}
	for _, e := range Registry {
		hold(e.ID, func() (Report, error) { return e.Run(Options{Scale: "small", Ops: 400_000, Seed: 1}) })
	}
	hold("compare", func() (Report, error) {
		return RunCompare(CompareConfig{Scale: "small", Seed: 1, Shards: []int{1, 2}, SetFrac: 0.1, DelFrac: 0.02})
	})
}

// TestFidelityTableNamesRegisteredExperiments keeps a typo in the table
// from silently checking nothing.
func TestFidelityTableNamesRegisteredExperiments(t *testing.T) {
	for _, c := range fidelity {
		if _, err := ByID(c.exp); err != nil && c.exp != "compare" {
			t.Error(err)
		}
	}
}
