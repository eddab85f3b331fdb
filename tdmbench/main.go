// Command tdmbench is the repository's end-to-end and per-layer benchmark.
//
// It runs one of three workloads against the system under test and prints,
// as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Untraced runs (-trace 0) drive the cmd/experiments and cmd/sweepd
// binaries as a user would and report the end-to-end metrics. Traced runs
// (-trace 1) drive the same workload in process through the internal
// packages' public functions, record spans around every call into a layer,
// replay the executed points through each layer in isolation, and report
// the per-layer metrics. README.md beside this file explains the workloads
// and which layer metric should move which end-to-end metric.
//
// run.sh builds the binaries and this command from source and then runs:
//
//	tdmbench -root <checkout> -bin <dir> --workload sweep-cold --seed 3 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"
)

// metric is one reported measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result object printed as the last line of stdout.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// set records one metric.
func (r *report) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail counts n failed operations and logs why.
func (r *report) fail(n int, format string, args ...any) {
	r.Failed += n
	fmt.Fprintf(os.Stderr, "tdmbench: CHECK FAILED: "+format+"\n", args...)
}

// size fixes how much work a workload does. Every run uses fullSize; the
// self-test uses tinySize.
type size struct {
	// name selects the reference files under testdata/.
	name string
	// benchmarks restricts paper-figs to a Table II subset (nil = all nine).
	benchmarks []string
	// seedsPerFamily is the number of seeds per synth family in the sweep
	// grid (grid points = families x seeds x 4 runtimes x 2 core counts).
	seedsPerFamily int
	// launches is how many extra times each repetition sets up the
	// system under test before it measures, so the median set-up time
	// rests on many samples spread over the whole run, not on the host's
	// speed in one moment.
	launches int
}

var (
	fullSize = size{name: "full", seedsPerFamily: 18, launches: 25}
	tinySize = size{name: "tiny", benchmarks: []string{"histogram"}, seedsPerFamily: 1, launches: 2}
)

// bench holds one invocation's settings.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	root     string // checkout root: the system under test's module
	bin      string // directory holding the experiments and sweepd binaries
	work     string // scratch directory for stores and trace output
	size     size
	log      io.Writer // progress and check messages
	speed    speed     // the host's speed over an untraced run
}

var workloadNames = []string{"paper-figs", "sweep-cold", "sweep-warm"}

// cpus is how many CPUs the system under test and the driver each use:
// GOMAXPROCS, simulation workers and client connections. run.sh also pins
// the driver and everything it starts to one CPU. On a 2-vCPU VM whose
// hypervisor is shared, keeping both vCPUs busy lets it steal 0-40% of
// their time depending on the neighbours, and wall times swing with it;
// with one busy vCPU little is stolen. README.md gives the measurements.
const cpus = 1

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tdmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload: paper-figs, sweep-cold or sweep-warm")
		seed     = fs.Int64("seed", 1, "seed deriving the sweep grid's synthetic programs")
		seconds  = fs.Float64("seconds", 30, "how long a run measures")
		trace    = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		root     = fs.String("root", ".", "checkout root (module of the system under test)")
		bin      = fs.String("bin", "", "directory holding the experiments and sweepd binaries")
		work     = fs.String("work", "", "scratch directory (default <root>/.bench_build/tdmbench)")
		tiny     = fs.Bool("tiny", false, "self-test size: one paper benchmark, one seed per synth family")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		root:     *root,
		bin:      *bin,
		work:     *work,
		size:     fullSize,
		log:      stderr,
	}
	if *tiny {
		b.size = tinySize
	}
	if b.work == "" {
		b.work = filepath.Join(b.root, ".bench_build", "tdmbench")
	}
	if !slices.Contains(workloadNames, b.workload) || *trace < 0 || *trace > 1 || *seconds <= 0 || b.bin == "" {
		fmt.Fprintf(stderr, "tdmbench: need -bin, --workload %v, --seconds > 0 and --trace 0|1\n", workloadNames)
		return 2
	}
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		fmt.Fprintln(stderr, "tdmbench:", err)
		return 2
	}
	runtime.GOMAXPROCS(cpus)

	host := hostInfo(b)
	ticks := readTicks()
	var (
		rep *report
		err error
	)
	if *trace == 1 {
		rep, err = b.traced(host)
	} else {
		rep, err = b.untraced()
	}
	if err != nil {
		fmt.Fprintln(stderr, "tdmbench:", err)
		return 1
	}
	host["loadavg_after"] = loadavg()
	host["cpu_steal_pct"] = stealPct(ticks, readTicks())
	hj, _ := json.Marshal(host)
	fmt.Fprintf(stdout, "host %s\n", hj)
	printSummary(stdout, b.workload, rep)
	rep.Correct = rep.Failed == 0
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "tdmbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	if !rep.Correct {
		return 1
	}
	return 0
}

// untraced runs a workload through the binaries for the configured time
// and reports the end-to-end metrics. It flushes the file system before
// and after, so that no run pays for another's writes and deletions.
func (b *bench) untraced() (*report, error) {
	settle()
	defer settle()
	switch b.workload {
	case "paper-figs":
		return b.paperFigs()
	case "sweep-cold":
		return b.sweepCold()
	default:
		return b.sweepWarm()
	}
}

// printSummary prints every metric by name with its unit, plus the error
// rate the result object carries as attempted and failed.
func printSummary(w io.Writer, workload string, rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(w, "%-12s %-28s %14.6g %s\n", workload, n, m.Value, m.Unit)
	}
	rate := 0.0
	if rep.Attempted > 0 {
		rate = float64(rep.Failed) / float64(rep.Attempted)
	}
	fmt.Fprintf(w, "%-12s %-28s %14.6g (%d failed of %d attempted)\n", workload, "error_rate", rate, rep.Failed, rep.Attempted)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
