// Command bench is the repository's benchmark: one served-commit / read
// / restart benchmark with a per-layer budget. It drives the system as
// it serves traffic — client, loopback TCP, server, guardian, hybrid
// log, stable log, two-copy stable storage, device — on fsync-per-block
// files and on a zero-latency memory device, checks everything it was
// told against a ledger, and prints every metric by name with its unit.
// See README.md beside this file.
//
//	go run ./bench                         all workloads, untraced then traced
//	go run ./bench -workload W -seed N     one workload
//	go run ./bench -compare A.json B.json  two -out files against the bounds
//
// The driver's form, one run per invocation, last line one JSON object:
//
//	bench --workload W --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
)

// defaultSeconds is BENCHMARK.json's run_seconds: what the method's
// slice lengths were chosen at.
const defaultSeconds = 12

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload (default: all six, each in its own process)")
		seed     = flag.Int64("seed", 1, "seed of the generated operation streams")
		seconds  = flag.Float64("seconds", defaultSeconds, "measured seconds per run (the method's slices scale with it)")
		trace    = flag.Int("trace", -1, "0: untraced pass (end-to-end metrics); 1: traced pass (per-layer metrics); default both")
		out      = flag.String("out", "", "write every run's result to this JSON file")
		outDir   = flag.String("outdir", filepath.Join("bench", "out"), "scratch directory for file volumes and trace files")
		compare  = flag.Bool("compare", false, "compare two -out files: bench -compare A.json B.json")
		runs     = flag.Int("runs", 1, "repeat each workload with this many consecutive seeds, starting at -seed")
	)
	flag.Parse()
	if *compare {
		os.Exit(compareMain(flag.Args()))
	}
	if runtime.NumCPU() < 2 {
		fatal(fmt.Errorf("the method needs 2 cores (one generator process, at most 2 connections, beside the server); this host has %d", runtime.NumCPU()))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}

	if *workload != "" && *trace >= 0 {
		// One run, the driver's contract: result object on the last line.
		spec, err := findWorkload(*workload)
		if err != nil {
			fatal(err)
		}
		res, err := runWorkload(spec, runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir})
		if err != nil {
			fatal(err)
		}
		printRun(os.Stderr, res)
		if *out != "" {
			if err := writeResults(*out, []*runResult{res}); err != nil {
				fatal(err)
			}
		}
		if err := printContractLine(res); err != nil {
			fatal(err)
		}
		os.Exit(exitCode(res))
	}

	// The suite: every requested workload in a child process of its
	// own, untraced then traced, so no workload inherits another's heap
	// or page cache state.
	specs := workloads
	if *workload != "" {
		spec, err := findWorkload(*workload)
		if err != nil {
			fatal(err)
		}
		specs = []workloadSpec{*spec}
	}
	passes := []int{0, 1}
	if *trace >= 0 {
		passes = []int{*trace}
	}
	var results []*runResult
	code := 0
	for _, spec := range specs {
		for s := *seed; s < *seed+int64(*runs); s++ {
			for _, pass := range passes {
				res, err := runChild(spec.name, s, *seconds, pass, *outDir)
				if err != nil {
					fatal(fmt.Errorf("%s (seed %d, trace %d): %w", spec.name, s, pass, err))
				}
				printRun(os.Stdout, res)
				results = append(results, res)
				if c := exitCode(res); c != 0 {
					code = c
				}
			}
		}
	}
	if *out != "" {
		if err := writeResults(*out, results); err != nil {
			fatal(err)
		}
	}
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// exitCode is non-zero when a run was incorrect: a wrong reply, a
// failed operation, or an acknowledged operation lost.
func exitCode(res *runResult) int {
	if !res.Correct || res.AckedLost > 0 || res.Failed > 0 {
		return 1
	}
	return 0
}

// runChild runs one workload pass in a child process and returns the
// result it wrote.
func runChild(name string, seed int64, seconds float64, pass int, outDir string) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	tmp := filepath.Join(outDir, fmt.Sprintf("result-%s-%d-%d.json", name, pass, os.Getpid()))
	defer os.Remove(tmp)
	cmd := exec.Command(exe,
		"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", fmt.Sprint(pass), "-outdir", outDir, "-out", tmp)
	// The child's output matters only when it left no result: its
	// contract line is for the driver, and the parent prints what it
	// reads from -out.
	output, runErr := cmd.CombinedOutput()
	results, err := readResults(tmp)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("child: %w: %s", runErr, strings.TrimSpace(string(output)))
		}
		return nil, err
	}
	// A child that exits 1 found the run incorrect; its result says why.
	return results[0], nil
}

// resultsFile is what -out writes and -compare reads.
type resultsFile struct {
	GoVersion string       `json:"go_version"`
	CPUs      int          `json:"cpus"`
	Results   []*runResult `json:"results"`
}

func writeResults(path string, results []*runResult) error {
	data, err := json.MarshalIndent(resultsFile{GoVersion: runtime.Version(), CPUs: runtime.NumCPU(), Results: results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) ([]*runResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Results) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return f.Results, nil
}

// defsFor lists the metrics a pass reports, in table order.
func defsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// contractMetric is a metric as the driver reads it.
type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printContractLine prints the one JSON object the driver parses.
func printContractLine(res *runResult) error {
	metrics := make(map[string]contractMetric)
	for _, d := range defsFor(res.Trace) {
		m, ok := res.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("%s did not report %s", res.Workload, d.Name)
		}
		metrics[d.Name] = contractMetric{Value: m.Value, Unit: d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]contractMetric `json:"metrics"`
	}{exitCode(res) == 0, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// printRun prints one run for a reader: every metric by name with its
// unit and better-direction, the slice spread beside slice medians.
func printRun(w *os.File, res *runResult) {
	pass := "untraced"
	if res.Trace {
		pass = "traced"
	}
	fmt.Fprintf(w, "\n== %s  seed %d  %s  %gs ==\n", res.Workload, res.Seed, pass, res.Seconds)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	known := make(map[string]bool)
	row := func(d metricDef) {
		m, ok := res.Metrics[d.Name]
		if !ok {
			return
		}
		known[d.Name] = true
		extra := ""
		if len(m.Slices) > 0 {
			extra = fmt.Sprintf("%s.spread %.3f of %.4g", d.Name, m.Spread, m.Slices)
		}
		if m.Samples > 0 {
			extra += fmt.Sprintf("  (>= %d samples per slice)", m.Samples)
		}
		fmt.Fprintf(tw, "%s\t%.4f\t%s\t%s is better\t%s\n", d.Name, m.Value, d.Unit, d.Better, extra)
	}
	for _, d := range defsFor(res.Trace) {
		row(d)
	}
	var rest []string
	for name := range res.Metrics {
		if !known[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range rest {
		fmt.Fprintf(tw, "%s\t%.4f\t%s\t\t\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	fmt.Fprintf(tw, "op_fail_ratio\t%.6f\tratio\tlower is better\t%d of %d\n", res.OpFailRatio(), res.Failed, res.Attempted)
	fmt.Fprintf(tw, "acked_lost\t%d\tcount\tmust be 0\t\n", res.AckedLost)
	// Writes to a terminal or pipe; a failure here has nowhere to go.
	_ = tw.Flush()
	if res.Trace {
		if p50, ok := res.Metrics["budget.commit_p50_us"]; ok {
			m := func(n string) float64 { return res.Metrics[n].Value }
			fmt.Fprintf(w, "budget: commit_p50_us %.1f = %.2f x server.ping_rtt_us %.1f + guardian.commit_self_us %.1f + %.2f x device.write_us_p50 %.2f + unattributed %.1f (%.0f%%)\n",
				p50.Value, m("net.server_writes_per_op"), m("server.ping_rtt_us"), m("guardian.commit_self_us"),
				m("device.writes_per_commit"), m("device.write_us_p50"), m("budget.unattributed_us"),
				100*m("budget.unattributed_us")/p50.Value)
		}
		if res.TraceFile != "" {
			fmt.Fprintf(w, "spans: %s\n", res.TraceFile)
		}
	}
	if len(res.Errors) > 0 {
		fmt.Fprintf(w, "INCORRECT: %s\n", strings.Join(res.Errors, "; "))
	}
}
