package experiments

import (
	"fmt"

	"nemo/internal/hashing"
	"nemo/internal/metrics"
	"nemo/internal/setblock"
	"nemo/internal/trace"
)

// firstFillSkew inserts objects from the stream into an SG of numSets sets
// of setSize bytes until any set would overflow, then returns the fill
// rates of all *other* sets — the Challenge 1 measurement.
func firstFillSkew(s trace.Stream, numSets, setSize int) []float64 {
	fill := make([]int, numSets)
	var req trace.Request
	budget := setSize - setblock.HeaderSize
	for {
		s.Next(&req)
		need := setblock.EntrySize(len(req.Key), len(req.Value))
		fp := hashing.Fingerprint(req.Key)
		o := int(hashing.Derive(fp, 0) % uint64(numSets))
		if fill[o]+need > budget {
			rates := make([]float64, 0, numSets-1)
			for i, f := range fill {
				if i == o {
					continue
				}
				rates = append(rates, float64(f)/float64(budget))
			}
			return rates
		}
		fill[o] += need
	}
}

func runFig8(o Options) (Report, error) {
	rep := Report{Paper: "with 4 KB sets the remaining sets are typically below 25% full — naïve flush wastes capacity"}
	thresholds := []float64{0.25, 0.50, 0.75}

	// SG sizes scaled from the paper's 64 MB–4096 MB: the governing ratio
	// is the number of sets per SG.
	type sg struct {
		name string
		sets int
	}
	sgs := []sg{{"64MB-equiv", 2048}, {"256MB-equiv", 8192}, {"1024MB-equiv", 32768}, {"4096MB-equiv", 131072}}
	if o.Scale == "small" {
		sgs = []sg{{"64MB-equiv", 512}, {"256MB-equiv", 2048}}
	}
	for _, setSize := range []int{4096, 8192} {
		t := rep.table(fmt.Sprintf("set size %d B", setSize), "SG size", "sets",
			"syn ≤25%", "syn ≤50%", "syn ≤75%", "real ≤25%", "real ≤50%", "real ≤75%", "syn mean fill", "real mean fill")
		for _, sg := range sgs {
			n := sg.sets
			// Synthetic: normal(250, 200), as in the paper.
			syn := trace.NewSyntheticInserts(16, 250, 200, o.Seed+1)
			synRates := firstFillSkew(syn, n, setSize)
			// "Real-world": the Zipf cluster mix (unique-insert view via
			// high key-space so near-unique draws).
			zw, err := trace.DefaultInterleaved(int64(n)*int64(setSize)*4, o.Seed+2)
			if err != nil {
				return rep, err
			}
			realRates := firstFillSkew(zw, n, setSize)
			cells := []Cell{count(n)}
			for _, rates := range [][]float64{synRates, realRates} {
				for _, p := range metrics.FillRateCDF(rates, thresholds) {
					cells = append(cells, pct("%.1f", p))
				}
			}
			t.row(sg.name, append(cells, pct("%.1f", metrics.Mean(synRates)), pct("%.1f", metrics.Mean(realRates)))...)
		}
	}
	return rep, nil
}
