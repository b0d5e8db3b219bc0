// Command benchjson runs the repository's benchmark suite (experiments
// E1–E10, E13, E14, E18, E19 and the parameter ablations) and emits a
// machine-readable BENCH_<n>.json snapshot: ns/op, B/op, allocs/op, and
// every custom b.ReportMetric quantity (states/op, states/sec, ...),
// grouped by experiment. Successive PRs archive these files (the CI
// workflow uploads one per run) so performance trajectories —
// regressions and wins alike — are diffable instead of anecdotal.
//
// Usage:
//
//	go run ./cmd/benchjson [-n 2] [-bench .] [-benchtime 1x] [-out FILE]
//	go test -run '^$' -bench . -benchmem . | go run ./cmd/benchjson -stdin
//	go run ./cmd/benchjson -diff -old BENCH_3.json -new BENCH_ci.json
//
// The -diff mode compares two snapshots benchmark by benchmark (ns/op and
// the states/sec throughput metric where present), printing the deltas
// and marking slowdowns beyond 10% as REGRESSION lines. Regressions never
// fail the run — the comparison is informational, since smoke-run
// (benchtime 1x) numbers are too noisy to gate merges on — but unreadable
// or missing snapshot files exit 1; the CI step and the Makefile recipe
// tolerate that, keeping the whole step non-blocking.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark line.
type Result struct {
	// Name is the full benchmark name including sub-benchmarks, with the
	// trailing -GOMAXPROCS suffix stripped.
	Name string `json:"name"`
	// Cpus is the GOMAXPROCS the line ran under (the stripped -N suffix;
	// 1 when the runner printed none). A -cpu matrix emits one Result per
	// core count, distinguished by this field.
	Cpus int `json:"cpus"`
	// Experiment is the E<n> tag parsed from the name, e.g. "E4".
	Experiment string  `json:"experiment,omitempty"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are present when run with -benchmem.
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds the custom b.ReportMetric quantities (states/op,
	// states/sec, max-depth, ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Snapshot is the emitted file.
type Snapshot struct {
	Sequence  string `json:"sequence"`
	Generated string `json:"generated"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// GOMAXPROCS and NumCPU record the harness machine's parallelism at
	// snapshot time; Cpu is the -cpu matrix the runner was given (empty =
	// the default single GOMAXPROCS). Throughput numbers are only
	// comparable between snapshots taken on machines with the same
	// physical core count — -diff warns when these disagree.
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"num_cpu"`
	Cpu        string   `json:"cpu,omitempty"`
	Bench      string   `json:"bench"`
	BenchTime  string   `json:"benchtime"`
	Results    []Result `json:"results"`
}

var (
	benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+([\d.]+) ns/op(.*)$`)
	metricPat = regexp.MustCompile(`([\d.e+-]+) (\S+)`)
	expPat    = regexp.MustCompile(`^BenchmarkE(\d+)`)
)

func parse(r io.Reader) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		cpus := 1
		if m[2] != "" {
			cpus, _ = strconv.Atoi(m[2])
		}
		iters, _ := strconv.ParseInt(m[3], 10, 64)
		ns, _ := strconv.ParseFloat(m[4], 64)
		res := Result{Name: m[1], Cpus: cpus, Iterations: iters, NsPerOp: ns}
		if e := expPat.FindStringSubmatch(m[1]); e != nil {
			res.Experiment = "E" + e[1]
		}
		for _, mm := range metricPat.FindAllStringSubmatch(m[5], -1) {
			v, err := strconv.ParseFloat(mm[1], 64)
			if err != nil {
				continue
			}
			switch mm[2] {
			case "B/op":
				res.BytesPerOp = &v
			case "allocs/op":
				res.AllocsPerOp = &v
			default:
				if res.Metrics == nil {
					res.Metrics = make(map[string]float64)
				}
				res.Metrics[mm[2]] = v
			}
		}
		out = append(out, res)
	}
	return out, sc.Err()
}

func main() {
	seq := flag.String("n", "0", "sequence number used in the default output name BENCH_<n>.json")
	bench := flag.String("bench", ".", "benchmark regexp passed to go test -bench")
	benchtime := flag.String("benchtime", "1x", "benchtime passed to go test (1x = smoke, 1s = stable numbers)")
	out := flag.String("out", "", "output path (default BENCH_<n>.json)")
	stdin := flag.Bool("stdin", false, "parse benchmark output from stdin instead of running go test")
	pkg := flag.String("pkg", ".", "package pattern to benchmark")
	cpu := flag.String("cpu", "", "GOMAXPROCS matrix passed to go test -cpu (e.g. 1,2,4,8); empty = runner default")
	diffMode := flag.Bool("diff", false, "compare two snapshots (-old, -new) instead of running benchmarks")
	oldPath := flag.String("old", "", "baseline snapshot for -diff")
	newPath := flag.String("new", "", "candidate snapshot for -diff")
	flag.Parse()

	if *diffMode {
		if err := diff(*oldPath, *newPath); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: diff: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var (
		raw []byte
		err error
	)
	if *stdin {
		raw, err = io.ReadAll(os.Stdin)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: read stdin: %v\n", err)
			os.Exit(1)
		}
	} else {
		testArgs := []string{"test", "-run", "^$", "-bench", *bench,
			"-benchmem", "-benchtime", *benchtime}
		if *cpu != "" {
			testArgs = append(testArgs, "-cpu", *cpu)
		}
		cmd := exec.Command("go", append(testArgs, *pkg)...)
		var buf bytes.Buffer
		cmd.Stdout = &buf
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n%s", err, buf.String())
			os.Exit(1)
		}
		raw = buf.Bytes()
	}

	results, err := parse(bytes.NewReader(raw))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: parse: %v\n", err)
		os.Exit(1)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found")
		os.Exit(1)
	}
	snap := Snapshot{
		Sequence:   *seq,
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Cpu:        *cpu,
		Bench:      *bench,
		BenchTime:  *benchtime,
		Results:    results,
	}
	path := *out
	if path == "" {
		path = "BENCH_" + strings.ReplaceAll(*seq, string(os.PathSeparator), "_") + ".json"
	}
	enc, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: encode: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(enc, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: write: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("benchjson: wrote %d results to %s\n", len(results), path)
}

// loadSnapshot reads a BENCH_<n>.json file.
func loadSnapshot(path string) (*Snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// diff prints a per-benchmark comparison of two snapshots. ns/op deltas
// beyond ±10% are called out (REGRESSION/improved); where both sides
// report a states/sec metric — the throughput headline of E4/E10/E13/E14
// — its delta is shown alongside, as are B/op and allocs/op deltas when
// both snapshots were taken with -benchmem.
func diff(oldPath, newPath string) error {
	if oldPath == "" || newPath == "" {
		return fmt.Errorf("-diff needs both -old and -new")
	}
	oldSnap, err := loadSnapshot(oldPath)
	if err != nil {
		return err
	}
	newSnap, err := loadSnapshot(newPath)
	if err != nil {
		return err
	}
	// Results key on name plus GOMAXPROCS: a -cpu matrix emits the same
	// name at several core counts, and cross-core comparisons would be
	// nonsense.
	key := func(r Result) string {
		c := r.Cpus
		if c == 0 {
			c = 1 // snapshots predating the cpus field
		}
		return fmt.Sprintf("%s-%d", r.Name, c)
	}
	base := make(map[string]Result, len(oldSnap.Results))
	for _, r := range oldSnap.Results {
		base[key(r)] = r
	}
	fmt.Printf("benchjson: %s (%s) vs %s (%s)\n", oldPath, oldSnap.BenchTime, newPath, newSnap.BenchTime)
	if oldSnap.NumCPU != newSnap.NumCPU && oldSnap.NumCPU > 0 && newSnap.NumCPU > 0 {
		fmt.Printf("benchjson: WARNING: core-count mismatch (%d vs %d physical CPUs) — throughput deltas reflect hardware, not code\n",
			oldSnap.NumCPU, newSnap.NumCPU)
	}
	// A 1x smoke snapshot's ns/op is one warmup-laden iteration; marking
	// >10% deltas against a 1s baseline would flag nearly every row. Show
	// the deltas but suppress the REGRESSION verdicts across benchtimes.
	comparable := oldSnap.BenchTime == newSnap.BenchTime
	if !comparable {
		fmt.Printf("benchjson: benchtime mismatch (%s vs %s): deltas include warmup noise, REGRESSION markers suppressed\n",
			oldSnap.BenchTime, newSnap.BenchTime)
	}
	fmt.Printf("%-55s %14s %14s %8s %s\n", "benchmark", "old ns/op", "new ns/op", "delta", "note")
	regressions := 0
	for _, nr := range newSnap.Results {
		or, ok := base[key(nr)]
		if !ok || or.NsPerOp <= 0 {
			continue
		}
		delta := (nr.NsPerOp - or.NsPerOp) / or.NsPerOp * 100
		note := ""
		switch {
		case delta > 10 && comparable:
			note = "REGRESSION"
			regressions++
		case delta < -10 && comparable:
			note = "improved"
		}
		if oldTput, ok := or.Metrics["states/sec"]; ok && oldTput > 0 {
			if newTput, ok := nr.Metrics["states/sec"]; ok {
				note += fmt.Sprintf(" (states/sec %+.1f%%)", (newTput-oldTput)/oldTput*100)
			}
		}
		// Latency metrics (the E18 "-ns" histogram quantiles) and
		// dropped-windows are lower-is-better headlines in their own
		// right: a >10% increase is a regression even if ns/op held.
		for _, m := range latencyMetrics(or.Metrics, nr.Metrics) {
			o, n := or.Metrics[m], nr.Metrics[m]
			d := (n - o) / o * 100
			if d > 10 && comparable {
				note += fmt.Sprintf(" (%s %+.1f%% REGRESSION)", m, d)
				regressions++
			} else if d < -10 || d > 10 {
				note += fmt.Sprintf(" (%s %+.1f%%)", m, d)
			}
		}
		if d, ok := memDelta(or.AllocsPerOp, nr.AllocsPerOp); ok {
			note += fmt.Sprintf(" (allocs/op %+.1f%%)", d)
		}
		if d, ok := memDelta(or.BytesPerOp, nr.BytesPerOp); ok {
			note += fmt.Sprintf(" (B/op %+.1f%%)", d)
		}
		shown := nr.Name
		if nr.Cpus > 1 {
			shown = fmt.Sprintf("%s-%d", nr.Name, nr.Cpus)
		}
		fmt.Printf("%-55s %14.0f %14.0f %+7.1f%% %s\n", shown, or.NsPerOp, nr.NsPerOp, delta, note)
	}
	if regressions > 0 {
		fmt.Printf("benchjson: %d ns/op regression(s) beyond 10%% — informational, see note column\n", regressions)
	}
	return nil
}

// latencyMetrics returns the sorted lower-is-better metric names present
// with positive values in both snapshots: wall-clock latency quantiles
// (suffix "-ns") and the dropped-window count.
func latencyMetrics(old, new map[string]float64) []string {
	var names []string
	for m, o := range old {
		if !strings.HasSuffix(m, "-ns") && m != "dropped-windows" {
			continue
		}
		if _, ok := new[m]; ok && o > 0 {
			names = append(names, m)
		}
	}
	sort.Strings(names)
	return names
}

// memDelta computes the percentage change between two optional -benchmem
// quantities (B/op or allocs/op), present only when both sides have one.
func memDelta(old, new *float64) (float64, bool) {
	if old == nil || new == nil || *old <= 0 {
		return 0, false
	}
	return (*new - *old) / *old * 100, true
}
