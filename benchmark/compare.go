package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// resultSet is the untraced runs of one result file: per workload, per
// end-to-end metric, the values of its runs.
type resultSet map[string]map[string][]float64

// readResultSet reads a file of result documents, one JSON object per
// line, as the benchmark prints them (any other line is skipped, so the
// raw standard output of several runs is a result set). Traced runs are
// left out: their end-to-end numbers carry the tracing.
func readResultSet(path string) (resultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := make(resultSet)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		var doc resultDoc
		if json.Unmarshal(sc.Bytes(), &doc) != nil || doc.Schema != schema || doc.Trace != 0 {
			continue
		}
		if doc.OpsFailed != 0 || !doc.Correct {
			return nil, fmt.Errorf("%s: a %s run has %d failed operations", path, doc.Workload, doc.OpsFailed)
		}
		byMetric := set[doc.Workload]
		if byMetric == nil {
			byMetric = make(map[string][]float64)
			set[doc.Workload] = byMetric
		}
		for _, d := range endToEnd {
			if v, ok := doc.Metrics[d.Name]; ok {
				byMetric[d.Name] = append(byMetric[d.Name], v.Value)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s: no untraced %s result", path, schema)
	}
	return set, nil
}

// verdict judges one (workload, metric) cell: b against base a.
// Regressed means b's median is worse than a's by more than the metric's
// bound; a cell whose run-to-run spread (on either side) is wider than
// the bound cannot show that either way and is unresolved.
func verdict(d metricDef, a, b []float64) (status string, diff float64) {
	ma, mb := median(a), median(b)
	diff = ratio(mb-ma, ma)
	worse := diff
	if d.Better == higher {
		worse = -diff
	}
	switch {
	case iqrShare(a) > d.Bound || iqrShare(b) > d.Bound:
		return "unresolved", diff
	case worse > d.Bound:
		return "regressed", diff
	}
	return "ok", diff
}

// runCompare implements -compare a.json b.json: one row per (workload,
// end-to-end metric) present in both sets, exit status 1 if any cell
// regressed.
func runCompare(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
		return 2
	}
	a, err := readResultSet(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := readResultSet(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta (base)\tb\t(b-a)/a\tbound\tspread a\tspread b\tverdict")
	regressed := 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := a[wl.Name][d.Name], b[wl.Name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			status, diff := verdict(d, va, vb)
			if status == "regressed" {
				regressed++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%% %s\t%.1f%%\t%.1f%%\t%s\n",
				wl.Name, d.Name, d.Unit, median(va), median(vb), 100*diff, 100*d.Bound, d.Better,
				100*iqrShare(va), 100*iqrShare(vb), status)
		}
	}
	tw.Flush()
	if regressed > 0 {
		fmt.Fprintf(w, "%d regressed\n", regressed)
		return 1
	}
	return 0
}
