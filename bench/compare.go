package main

import (
	"encoding/json"
	"fmt"
	"os"
	"text/tabwriter"
)

// Verdicts of -compare, per workload and end-to-end metric.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"  // B is worse than A by more than the bound
	verdictUnresolved = "unresolved" // a side's own spread is wider than the bound: no verdict either way
)

// benchmarkJSON is the part of BENCHMARK.json -compare reads.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadBounds reads the end-to-end bounds from BENCHMARK.json in the
// current directory, falling back to the ones compiled in when the
// command is run elsewhere.
func loadBounds() (map[string]metricDef, error) {
	bounds := make(map[string]metricDef)
	for _, d := range endToEnd {
		bounds[d.Name] = d
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if os.IsNotExist(err) {
		return bounds, nil
	}
	if err != nil {
		return nil, err
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, m := range b.EndToEnd {
		d, ok := bounds[m.Name]
		if !ok {
			continue // a metric this build does not report
		}
		d.Better, d.Bound = m.Better, m.Bound
		bounds[m.Name] = d
	}
	return bounds, nil
}

// side is one metric of one workload in one -out file: its value and
// how far the file's own measurements of it disagree.
type side struct {
	value, spread float64
}

// minRunsForSpread is how many runs of a workload a file must hold
// before their spread is taken between runs; below it the slices of
// each run have to do.
const minRunsForSpread = 4

// sideOf reduces the runs of one workload in one file to a side. With
// several runs (seeds) the value is the median over runs and the
// spread their quartile spread — the run-to-run spread the bounds are
// about. With fewer, the spread is the widest quartile spread among
// the slices of a run.
func sideOf(runs []*runResult, metric string) (side, bool) {
	var values []float64
	var widest float64
	for _, r := range runs {
		m, ok := r.Metrics[metric]
		if !ok {
			return side{}, false
		}
		values = append(values, m.Value)
		widest = max(widest, quartileSpread(m.Slices))
	}
	if len(values) == 0 {
		return side{}, false
	}
	if len(values) >= minRunsForSpread {
		return side{median(values), quartileSpread(values)}, true
	}
	return side{median(values), widest}, true
}

// judge compares side b against side a under d's bound.
func judge(d metricDef, a, b side) (verdict string, worseBy float64) {
	if a.value != 0 {
		worseBy = (b.value - a.value) / a.value
		if d.Better == "higher" {
			worseBy = -worseBy
		}
	}
	switch {
	case a.spread > d.Bound || b.spread > d.Bound:
		return verdictUnresolved, worseBy
	case worseBy > d.Bound:
		return verdictRegressed, worseBy
	default:
		return verdictOK, worseBy
	}
}

// compareMain implements -compare A.json B.json. It exits 0 when every
// pair is ok, 1 when any is regressed or unresolved or a run was
// incorrect, 2 on bad input.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
		return 2
	}
	bounds, err := loadBounds()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var files [2]map[string][]*runResult
	for i, path := range args {
		results, err := readResults(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		files[i] = make(map[string][]*runResult)
		for _, r := range results {
			if !r.Trace {
				files[i][r.Workload] = append(files[i][r.Workload], r)
			}
		}
	}
	code := 0
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tworse by\tbound\tspread A\tspread B\tverdict")
	for _, spec := range workloads {
		a, b := files[0][spec.name], files[1][spec.name]
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		for _, def := range endToEnd {
			d := bounds[def.Name]
			sa, oka := sideOf(a, d.Name)
			sb, okb := sideOf(b, d.Name)
			if !oka || !okb {
				continue
			}
			verdict, worse := judge(d, sa, sb)
			if verdict != verdictOK {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%+.1f%%\t%.0f%%\t%.3f\t%.3f\t%s\n",
				spec.name, d.Name, sa.value, sb.value, 100*worse, 100*d.Bound, sa.spread, sb.spread, verdict)
		}
		for _, r := range append(append([]*runResult(nil), a...), b...) {
			if exitCode(r) != 0 {
				code = 1
				fmt.Fprintf(tw, "%s\tINCORRECT\t\t\t\t\t\t\tseed %d: failed %d of %d, acked_lost %d\n",
					spec.name, r.Seed, r.Failed, r.Attempted, r.AckedLost)
			}
		}
	}
	// Writes to a terminal or pipe; a failure here has nowhere to go.
	_ = tw.Flush()
	return code
}
