package main

import (
	"math"
	"path/filepath"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "commit_p50_us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "commits_per_s", Better: "higher", Bound: 0.10}
	cases := []struct {
		d    metricDef
		a, b side
		want string
	}{
		{lower, side{100, 0.02}, side{105, 0.03}, verdictOK},
		{lower, side{100, 0.02}, side{80, 0.03}, verdictOK}, // better is never a regression
		{lower, side{100, 0.02}, side{111, 0.03}, verdictRegressed},
		{higher, side{1000, 0.02}, side{880, 0.02}, verdictRegressed},
		{higher, side{1000, 0.02}, side{1200, 0.02}, verdictOK},
		{lower, side{100, 0.12}, side{130, 0.03}, verdictUnresolved}, // too noisy to call, even when it looks worse
		{lower, side{100, 0.02}, side{101, 0.30}, verdictUnresolved},
	}
	for i, c := range cases {
		if got, _ := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("case %d: %s, want %s", i, got, c.want)
		}
	}
}

func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 10], n=4) == [1.5, 3.0, 7.0]
	if got, want := quartileSpread([]float64{10, 1, 3, 2, 4}), (7.0-1.5)/3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("five values: %v, want %v", got, want)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := quartileSpread(ten), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("ten values: %v, want %v", got, want)
	}
	if quartileSpread([]float64{3}) != 0 || quartileSpread(nil) != 0 {
		t.Error("fewer than two values must have no spread")
	}
}

func TestPercentileAndMedian(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	if percentile(s, 50) != 50 || percentile(s, 99) != 100 || percentile(s, 10) != 10 {
		t.Errorf("nearest-rank percentiles: p50 %v p99 %v p10 %v", percentile(s, 50), percentile(s, 99), percentile(s, 10))
	}
	if median([]float64{4, 1, 3}) != 3 || median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Error("median")
	}
	if got := spread([]float64{90, 100, 120}); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("spread = %v, want 0.3", got)
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	mk := func(p50 float64, slices []float64, lost int64) *runResult {
		return &runResult{
			Workload: "commit-serial-mem", Correct: lost == 0, Attempted: 100, AckedLost: lost,
			Metrics: map[string]metricValue{"commit_p50_us": {Value: p50, Unit: "us", Slices: slices}},
		}
	}
	steady := []float64{99, 100, 100, 101, 100}
	write := func(name string, rs ...*runResult) string {
		path := filepath.Join(dir, name)
		if err := writeResults(path, rs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", mk(100, steady, 0))
	if code := compareMain([]string{base, write("same.json", mk(103, steady, 0))}); code != 0 {
		t.Errorf("within the bound: exit %d", code)
	}
	if code := compareMain([]string{base, write("worse.json", mk(140, steady, 0))}); code != 1 {
		t.Errorf("regressed: exit %d", code)
	}
	if code := compareMain([]string{base, write("noisy.json", mk(100, []float64{70, 100, 100, 100, 140}, 0))}); code != 1 {
		t.Errorf("unresolved: exit %d", code)
	}
	if code := compareMain([]string{base, write("lost.json", mk(100, steady, 3))}); code != 1 {
		t.Errorf("incorrect run: exit %d", code)
	}
	if code := compareMain([]string{base}); code != 2 {
		t.Errorf("bad usage: exit %d", code)
	}
	// Several runs per side: the spread is taken between runs, so one
	// noisy run among steady ones does not make the metric unresolved.
	var many []*runResult
	for _, v := range []float64{100, 101, 99, 100, 102} {
		many = append(many, mk(v, []float64{70, 100, 100, 100, 140}, 0))
	}
	if code := compareMain([]string{write("many-a.json", many...), write("many-b.json", many...)}); code != 0 {
		t.Errorf("several steady runs: exit %d", code)
	}
}
