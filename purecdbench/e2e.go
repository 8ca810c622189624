package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// runEndToEnd sets the service up between minSetUps and maxSetUps
// times, stopping after minSetUps once the set-ups have taken
// setUpBudget (the last set-up is kept), sends the measured sequence
// closed-loop and reports the end-to-end metrics. Nothing is traced.
func runEndToEnd(w *Workload, refs []Reference, workdir string, minSetUps, maxSetUps int) (*result, error) {
	// The benchmark's own live data (request sequence, references) is
	// measured first, so heap_live_mb counts only what the service
	// retains.
	var base, m0, m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&base)
	var o outcome
	var in *instance
	var setupS []float64
	var spent time.Duration
	for {
		dir, err := os.MkdirTemp(workdir, "cache-")
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		in, err = setUp(w, refs, dir, &o)
		d := time.Since(t0)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, d.Seconds())
		spent += d
		k := len(setupS)
		if k >= maxSetUps || (k >= minSetUps && spent >= setUpBudget) {
			break
		}
		if err := in.close(); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&m0)
	cpu0, t0 := cpuTime(), time.Now()
	var mo outcome
	lat, done := in.send(w.Measured, refs, w.Clients, "m", &mo)
	wall, cpu := time.Since(t0), cpuTime()-cpu0
	runtime.ReadMemStats(&m1)

	n := float64(len(w.Measured))
	ms := millis(lat)
	p50, _ := percentile(ms, 0.5)
	p90, beyond := percentile(ms, 0.9)
	p99, _ := percentile(ms, 0.99)
	fmt.Printf("latency: %d samples, %d beyond p90 (need ≥%d); mean %.4f ms, p99 %.4f ms, max %.4f ms\n",
		len(ms), beyond, minTailSamples, mean(ms), p99, ms[len(ms)-1])
	rates := windowRates(done, wall)
	fmt.Printf("throughput: whole phase %.4f 1/s; %d windows min %.4f median %.4f max %.4f 1/s\n",
		n/wall.Seconds(), len(rates), rates[0], median(rates), rates[len(rates)-1])
	metrics := map[string]metric{
		"latency_p50_ms":   {p50, "ms"},
		"latency_p90_ms":   {p90, "ms"},
		"throughput_rps":   {median(rates), "1/s"},
		"cpu_ms_per_req":   {float64(cpu) / float64(time.Millisecond) / n, "ms"},
		"alloc_kb_per_req": {float64(m1.TotalAlloc-m0.TotalAlloc) / 1e3 / n, "kB"},
	}
	// The samples are dead from here on, so the collection below frees
	// them.
	runtime.GC()
	runtime.ReadMemStats(&m2)
	// base counted the workload and the references; keep them live
	// through the second reading so the difference is the service's.
	runtime.KeepAlive(w)
	runtime.KeepAlive(refs)
	metrics["heap_live_mb"] = metric{(float64(m2.HeapAlloc) - float64(base.HeapAlloc)) / 1e6, "MB"}
	if err := in.close(); err != nil {
		return nil, err
	}
	sort.Float64s(setupS)
	metrics["setup_s"] = metric{setupS[len(setupS)/2], "s"}

	fmt.Printf("set-up: %d times, seconds %v; failed requests %d\n", len(setupS), setupS, o.failures)
	fmt.Printf("build sources (measured): %v\n", mo.builds)
	if beyond < minTailSamples {
		fmt.Fprintf(os.Stderr, "purecdbench: only %d samples beyond p90; raise --seconds\n", beyond)
	}
	if mo.first != nil {
		fmt.Fprintf(os.Stderr, "purecdbench: first failure: %v\n", mo.first)
	}
	if o.first != nil {
		fmt.Fprintf(os.Stderr, "purecdbench: first set-up failure: %v\n", o.first)
	}
	attempted := o.attempts + mo.attempts
	failed := o.failures + mo.failures
	fmt.Printf("failed_ratio: %g (%d of %d, set-up included)\n", float64(failed)/float64(attempted), failed, attempted)
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}
