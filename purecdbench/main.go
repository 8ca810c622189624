// Command purecdbench is the end-to-end benchmark of the purecd
// compile-and-run service. It starts the service in-process, drives one
// closed-loop workload generated from a seed, checks every response
// against the internal/interp oracle and prints the metrics as one JSON
// object on the last line of standard output.
//
// Usage (from the repository root, see run.sh):
//
//	purecdbench --workload NAME --seed N --seconds S --trace 0|1
//	purecdbench --repeat K --workload NAME --seconds S [--trace 0|1]
//
// --trace 0 measures the end-to-end metrics; --trace 1 replays the same
// request sequence while calling each layer directly and reports the
// per-layer metrics. --repeat K runs K seeds as child processes and
// prints every metric's median, quartiles and spread against its bound
// in ./BENCHMARK.json. README.md documents workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// A run sets the service up at least minSetUps times and, while the
// set-ups have taken less than setUpBudget, up to maxSetUps times.
// setup_s is the median; the last set-up is measured. Cheap set-ups
// thus get more samples, which steadies their median.
const (
	minSetUps   = 5
	maxSetUps   = 15
	setUpBudget = 2 * time.Second
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "run length: the run sends seconds × the workload's nominal rate requests")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced replay")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "purecdbench"), "directory for cache directories and span dumps")
	repeat := flag.Int("repeat", 0, "run this many seeds (seed, seed+1, ...) as child processes and print each metric's spread")
	flag.Parse()

	var err error
	if *repeat > 0 {
		err = repeatRuns(*repeat, *workload, *seed, *seconds, *trace, *workdir)
	} else {
		err = run(*workload, *seed, *seconds, *trace, *workdir)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "purecdbench: %v\n", err)
		os.Exit(1)
	}
}

// run makes one measurement and prints its result line.
func run(name string, seed int64, seconds float64, trace int, workdir string) error {
	rate, ok := nominalRate[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	if seconds <= 0 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	n := max(2, int(rate*seconds))
	w, err := Generate(name, seed, n, nproc())
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	printEnv(w, seed, n)

	t0 := time.Now()
	refs, err := References(w)
	if err != nil {
		return err
	}
	fmt.Printf("reference: %d parameter sets from internal/interp in %.3fs (not part of setup_s)\n",
		len(refs), time.Since(t0).Seconds())

	var res *result
	if trace == 0 {
		res, err = runEndToEnd(w, refs, workdir, minSetUps, maxSetUps)
	} else {
		res, err = runTraced(w, refs, workdir, seed)
	}
	if err != nil {
		return err
	}
	printMetrics(res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printEnv records what the result was measured on.
func printEnv(w *Workload, seed int64, n int) {
	sha, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				sha = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = "+dirty"
				}
			}
		}
	}
	fmt.Printf("env: GOMAXPROCS=%d nproc=%d cpu=%q go=%s git=%s%s\n",
		runtime.GOMAXPROCS(0), nproc(), cpuModel(), runtime.Version(), sha, modified)
	fmt.Printf("workload: %s seed=%d mode=%s clients=%d cores=%d requests=%d\n",
		w.Name, seed, w.Mode, w.Clients, w.Cores, n)
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown"
// where there is none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printMetrics prints the metrics one per line, sorted by name.
func printMetrics(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-28s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Printf("correct=%t attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
