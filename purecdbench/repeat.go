package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchmarkFile is the subset of BENCHMARK.json the steadiness mode
// reads: each metric's bound.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// repeatRuns runs k seeds of one workload as child processes of this
// binary and prints, per metric, the median, the quartiles and the
// spread (q3 - q1) / median next to the metric's bound in the
// BENCHMARK.json of the current directory, when there is one.
func repeatRuns(k int, name string, seed int64, seconds float64, trace int, workdir string) error {
	bounds := map[string]float64{}
	if data, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var bf benchmarkFile
		if err := json.Unmarshal(data, &bf); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
		for _, m := range bf.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < k; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace), "--workdir", workdir)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("seed %d: result line: %w", s, err)
		}
		if !res.Correct {
			return fmt.Errorf("seed %d: incorrect result (%d of %d failed)", s, res.Failed, res.Attempted)
		}
		names := make([]string, 0, len(res.Metrics))
		for n, m := range res.Metrics {
			values[n] = append(values[n], m.Value)
			units[n] = m.Unit
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Printf("seed %d:", s)
		for _, n := range names {
			fmt.Printf(" %s=%.4g", n, res.Metrics[n].Value)
		}
		fmt.Println()
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s: %d seeds from %d, %gs each\n", name, k, seed, seconds)
	fmt.Printf("%-28s %12s %12s %12s %8s %6s  %s\n", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
	for _, n := range names {
		q1, med, q3 := quartiles(values[n])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		verdict := ""
		if b, ok := bounds[n]; ok {
			switch {
			case spread <= b/3:
				verdict = "steady"
			case spread <= b:
				verdict = "within bound"
			default:
				verdict = "NOISY"
			}
			fmt.Printf("%-28s %12.4f %12.4f %12.4f %8.4f %6.2f  %s\n", n, q1, med, q3, spread, b, verdict)
			continue
		}
		fmt.Printf("%-28s %12.4f %12.4f %12.4f %8.4f %6s  %s\n", n, q1, med, q3, spread, "-", units[n])
	}
	return nil
}
