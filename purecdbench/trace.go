package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"purec/internal/comp"
	"purec/internal/core"
	"purec/internal/mem"
	"purec/internal/rt"
)

// Shares of the measured sequence the traced run replays with tracing
// and then sends untraced, for the tracing-overhead comparison. A
// traced request costs about three untraced ones (TCP request, handler
// call, mirror chain), so a traced run takes about as long as an
// untraced one.
const (
	tracedShare   = 0.25
	untracedShare = 0.25
	// minProbes is the least number of layer probes a traced run makes,
	// cycling over the workload's distinct programs; maxProbes caps them.
	minProbes   = 16
	maxProbes   = 32
	phaseProbes = 5
)

// layerCounts accumulates the traced run's counts that are not spans.
type layerCounts struct {
	allocFronts          int
	allocs               map[string]uint64
	compiles             int
	compileAllocs        uint64
	fused, parallelLoops int
	entries              int
	entryBytes           int64
	phaseCPU, phaseWall  map[string]time.Duration
	phaseTeam            int
}

// runTraced replays the workload's measured sequence with every layer
// call timed, then sends the continuation untraced, and reports the
// per-layer metrics. It also writes the span dump.
func runTraced(w *Workload, refs []Reference, workdir string, seed int64) (*result, error) {
	var o outcome
	dirs := make([]string, 4)
	for i := range dirs {
		d, err := os.MkdirTemp(workdir, "cache-")
		if err != nil {
			return nil, err
		}
		dirs[i] = d
		defer os.RemoveAll(d)
	}
	// a serves the TCP requests; b's handler is called in-process on
	// the same sequence, so both see the same cache states.
	a, err := setUp(w, refs, dirs[0], &o)
	if err != nil {
		return nil, err
	}
	defer a.close()
	b, err := setUp(w, refs, dirs[1], &o)
	if err != nil {
		return nil, err
	}
	defer b.close()
	m, err := newMirror(dirs[2])
	if err != nil {
		return nil, err
	}
	mismatches := 0
	var firstMismatch error
	mismatch := func(err error) {
		mismatches++
		if firstMismatch == nil {
			firstMismatch = err
		}
	}
	// Bring the mirror to the daemon's state: the build requests take
	// the full chain (memory mode builds inside BuildDetail), the warm
	// requests the workload's own mode.
	buildMode := ModeCompiled
	if w.Mode == ModeMemory {
		buildMode = ModeMemory
	}
	for _, r := range w.Build {
		if _, err := m.serve(&r, buildMode, nil, "", -1); err != nil {
			return nil, err
		}
	}
	for _, r := range w.Warm {
		if _, err := m.serve(&r, w.Mode, nil, "", -1); err != nil {
			return nil, err
		}
	}

	tr := newTracer()
	lc := &layerCounts{
		allocs:   map[string]uint64{},
		phaseCPU: map[string]time.Duration{}, phaseWall: map[string]time.Duration{},
	}
	if err := probeLayers(w, dirs[3], tr, lc); err != nil {
		return nil, err
	}
	if w.Name != "run-heavy" {
		phasePool, err := compositePool()
		if err != nil {
			return nil, err
		}
		for i := 0; i < phaseProbes; i++ {
			if err := runPhases(phasePool, tr, fmt.Sprintf("phase-%d", i), lc); err != nil {
				return nil, err
			}
		}
	}

	// run makes at least two requests, so both parts get one.
	nt := max(1, int(float64(len(w.Measured))*tracedShare))
	nu := min(max(1, int(float64(len(w.Measured))*untracedShare)), len(w.Measured)-nt)
	hits0, misses0 := a.srv.Cache().Stats()
	disk0 := a.srv.Cache().Disk().Stats()
	pool0 := m.poolStats()
	m.arenas = map[*comp.Process]mem.ArenaStats{}
	handler := b.srv.Handler()
	// ids holds each replayed request's http.request, serve.handler and
	// mirror span ids.
	ids := make([][3]int, 0, nt)
	for i := 0; i < nt; i++ {
		r := &w.Measured[i]
		ref := refs[r.Ref]
		id := "t-" + strconv.Itoa(i)

		h := tr.begin(id, -1, "http.request")
		rp, err := a.post(r, id)
		tr.end(h)
		if err == nil {
			err = check(rp, ref)
		}
		o.record(rp, err)

		hreq := httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(r.Body))
		hreq.Header.Set("Content-Type", "application/json")
		hreq.Header.Set("X-Purecd-Request", id)
		rec := httptest.NewRecorder()
		s := tr.begin(id, -1, "serve.handler")
		handler.ServeHTTP(rec, hreq)
		tr.end(s)
		res := rec.Result()
		hrp := reply{status: res.StatusCode, body: rec.Body.Bytes(), ret: res.Trailer.Get("X-Purecd-Ret"), build: res.Header.Get("X-Purecd-Build")}
		o.record(hrp, check(hrp, ref))

		root := tr.begin(id, -1, "mirror")
		got, err := m.serve(r, w.Mode, tr, id, root)
		tr.end(root)
		if err == nil && got.art != nil {
			err = checkFront(r, got.art)
		}
		switch {
		case err != nil:
			mismatch(fmt.Errorf("request %s: %v", id, err))
		case string(got.source) != rp.build || string(got.source) != hrp.build:
			mismatch(fmt.Errorf("request %s: mirror build source %s, daemon %q, handler %q", id, got.source, rp.build, hrp.build))
		case got.key.String()[:16] != rp.prog:
			mismatch(fmt.Errorf("request %s: mirror key %.16s, daemon %s", id, got.key, rp.prog))
		case !bytes.Equal(got.stdout, ref.Stdout) || got.ret != ref.Ret:
			mismatch(fmt.Errorf("request %s: mirror stdout %q ret %d, want %q ret %d", id, got.stdout, got.ret, ref.Stdout, ref.Ret))
		}
		if w.Name == "run-heavy" && err == nil {
			if err := runPhases(m.pools[got.key], tr, id, lc); err != nil {
				return nil, err
			}
		}
		ids = append(ids, [3]int{h, s, root})
	}

	// The untraced continuation: same template and mode, one client.
	var g0, g1 runtime.MemStats
	runtime.ReadMemStats(&g0)
	lat, _ := a.send(w.Measured[nt:nt+nu], refs, 1, "u", &o)
	runtime.ReadMemStats(&g1)
	hits1, misses1 := a.srv.Cache().Stats()
	disk1 := a.srv.Cache().Disk().Stats()
	pool1 := m.poolStats()

	if err := tr.dump(filepath.Join(workdir, fmt.Sprintf("spans-%s-seed%d.tsv", w.Name, seed))); err != nil {
		return nil, err
	}
	if o.first != nil {
		fmt.Fprintf(os.Stderr, "purecdbench: first failure: %v\n", o.first)
	}
	if firstMismatch != nil {
		fmt.Fprintf(os.Stderr, "purecdbench: first mirror mismatch: %v\n", firstMismatch)
	}
	fmt.Printf("traced: %d requests replayed, %d untraced, %d spans, %d mirror mismatches\n",
		nt, nu, len(tr.spans), mismatches)

	st := tr.byName()
	cover := tr.childTime()
	dur := func(id int) time.Duration { return tr.spans[id].end - tr.spans[id].start }
	var transport, self time.Duration
	for _, q := range ids {
		transport += dur(q[0]) - dur(q[1])
		self += dur(q[1]) - cover[q[2]]
	}
	meanUS := func(name string) float64 { return per(us(st[name].total), st[name].n) }
	reused, fresh := m.arenaRecycle()
	fronts := st["core.front"].n
	memHits, memAll := hits1-hits0, hits1-hits0+misses1-misses0
	diskHits, diskAll := disk1.Hits-disk0.Hits, disk1.Hits-disk0.Hits+disk1.Misses-disk0.Misses
	untraced := mean(millis(lat))
	traced := meanUS("http.request") / 1e3
	mt := map[string]metric{
		"http.transport_us":        {per(us(transport), len(ids)), "us"},
		"serve.handler_us":         {meanUS("serve.handler"), "us"},
		"serve.self_us":            {per(us(self), len(ids)), "us"},
		"core.key_us":              {meanUS("core.key"), "us"},
		"core.lookup_us":           {meanUS("core.lookup"), "us"},
		"core.memory_hit_ratio":    {per(float64(memHits), int(memAll)), "ratio"},
		"core.disk_store_us":       {meanUS("core.disk_store"), "us"},
		"core.disk_load_us":        {meanUS("core.disk_load"), "us"},
		"core.disk_hit_ratio":      {per(float64(diskHits), int(diskAll)), "ratio"},
		"core.disk_entry_kb":       {per(float64(lc.entryBytes)/1e3, lc.entries), "kB"},
		"core.front_us":            {meanUS("core.front"), "us"},
		"comp.compile_us":          {meanUS("comp.compile"), "us"},
		"comp.compile_allocs":      {per(float64(lc.compileAllocs), lc.compiles), "count"},
		"comp.fused_kernels":       {per(float64(lc.fused), lc.compiles), "count"},
		"transform.parallel_loops": {per(float64(lc.parallelLoops), lc.allocFronts), "count"},
		"comp.pool_get_us":         {meanUS("comp.pool_get"), "us"},
		"comp.pool_put_us":         {meanUS("comp.pool_put"), "us"},
		"comp.pool_reuse_ratio":    {per(float64(pool1.Reuses-pool0.Reuses), int(pool1.Gets-pool0.Gets)), "ratio"},
		"mem.arena_recycle_ratio":  {per(float64(reused), int(reused+fresh)), "ratio"},
		"comp.run_us":              {meanUS("comp.run"), "us"},
		"gc.cycles_per_kreq":       {per(float64(g1.NumGC-g0.NumGC)*1e3, nu), "count"},
		"trace.traced_mean_ms":     {traced, "ms"},
		"trace.untraced_mean_ms":   {untraced, "ms"},
		"trace.overhead_pct":       {(traced/untraced - 1) * 100, "%"},
	}
	for _, s := range frontStages {
		mt[s+"_us"] = metric{per(us(st[s].total), fronts), "us"}
		mt[s+"_calls"] = metric{per(float64(st[s].n), fronts), "count"}
		mt[s+"_allocs"] = metric{per(float64(lc.allocs[s]), lc.allocFronts), "count"}
	}
	for _, ph := range compositePhases {
		wall := lc.phaseWall[ph]
		mt["guest."+ph+"_ms"] = metric{per(float64(wall)/float64(time.Millisecond), st["guest."+ph].n), "ms"}
		mt["guest."+ph+"_cpu_util"] = metric{per(float64(lc.phaseCPU[ph])/float64(lc.phaseTeam), int(wall)), "ratio"}
	}
	return &result{
		Correct:   o.failures == 0 && mismatches == 0,
		Attempted: o.attempts,
		Failed:    o.failures,
		Metrics:   mt,
	}, nil
}

// compositePool builds the run-heavy guest for the phase probes of the
// other workloads, with a pool on nproc workers as run-heavy uses.
func compositePool() (*comp.ProcessPool, error) {
	r := newRequest(compositeSrc, compositeDefines(1), nproc(), 0)
	prog, _, _, err := core.BuildProgram(r.Source, r.Config())
	if err != nil {
		return nil, err
	}
	cores := nproc()
	return prog.NewPool(comp.PoolOptions{Size: 1, NewTeam: func() *rt.Team { return rt.NewTeam(cores) }}), nil
}

// runPhases runs the composite guest's phases one by one on one pooled
// Process, timing each and measuring its process CPU.
func runPhases(pool *comp.ProcessPool, tr *tracer, req string, lc *layerCounts) error {
	proc, err := pool.Get()
	if err != nil {
		return err
	}
	defer pool.Put(proc)
	lc.phaseTeam = proc.Team().Size()
	root := tr.begin(req, -1, "guest.phases")
	defer tr.end(root)
	for _, ph := range compositePhases {
		cpu0, t0 := cpuTime(), time.Now()
		var err error
		tr.do(req, root, "guest."+ph, func() { _, err = proc.CallInt("phase_" + ph) })
		lc.phaseWall[ph] += time.Since(t0)
		lc.phaseCPU[ph] += cpuTime() - cpu0
		if err != nil {
			return fmt.Errorf("phase %s: %v", ph, err)
		}
	}
	return nil
}

// probeLayers times the build layers on the workload's distinct
// programs with state of its own: the front end stage by stage (and
// once more counting allocations), compile, disk store and load, and a
// memory-cache hit. It checks that the mirrored front end reproduces
// core.Front's final source.
func probeLayers(w *Workload, dir string, tr *tracer, lc *layerCounts) error {
	disk, err := core.NewDiskCache(dir, 0)
	if err != nil {
		return err
	}
	cache := core.NewProgramCache(128)
	n := min(max(len(w.Distinct), minProbes), maxProbes)
	for i := 0; i < n; i++ {
		r := &w.Distinct[i%len(w.Distinct)]
		cfg := r.Config()
		req := "probe-" + strconv.Itoa(i)
		key := core.Key(r.Source, cfg)

		front := tr.begin(req, -1, "core.front")
		art, err := mirrorFront(r.Source, cfg, &stageMeter{tr: tr, req: req, parent: front})
		tr.end(front)
		if err != nil {
			return err
		}
		if err := checkFront(r, art); err != nil {
			return fmt.Errorf("probe %d: %v", i, err)
		}
		counted := &stageMeter{allocs: lc.allocs}
		if _, err := mirrorFront(r.Source, cfg, counted); err != nil {
			return err
		}
		lc.allocFronts++
		for _, l := range art.Report.Loops {
			if l.ParallelLevel >= 0 {
				lc.parallelLoops++
			}
		}

		var prog *comp.Program
		tr.do(req, -1, "comp.compile", func() { prog, err = art.Compile(cfg) })
		if err != nil {
			return err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := art.Compile(cfg); err != nil {
			return err
		}
		runtime.ReadMemStats(&m1)
		lc.compileAllocs += m1.Mallocs - m0.Mallocs
		lc.compiles++
		lc.fused += prog.FusedKernels()

		tr.do(req, -1, "core.disk_store", func() { err = disk.Store(key, cfg, art) })
		if err != nil {
			return err
		}
		// Entries are named by the hex key (core.DiskCache's layout).
		if fi, err := os.Stat(filepath.Join(disk.Dir(), key.String()+".json")); err == nil {
			lc.entries++
			lc.entryBytes += fi.Size()
		}
		ok := false
		tr.do(req, -1, "core.disk_load", func() { _, ok = disk.Load(r.Source, key, cfg) })
		if !ok {
			return fmt.Errorf("probe %d: stored entry does not load", i)
		}

		if _, _, _, err := cache.BuildDetail(r.Source, cfg); err != nil {
			return err
		}
		var src core.BuildSource
		tr.do(req, -1, "core.lookup", func() { _, _, src, err = cache.BuildDetail(r.Source, cfg) })
		if err != nil || src != core.SourceMemory {
			return fmt.Errorf("probe %d: second build not a memory hit (%v, %v)", i, src, err)
		}
	}
	return nil
}

// checkFront checks that a mirrored front end produced core.Front's
// final source for r, so spans of the mirror time the daemon's program.
func checkFront(r *Request, art *core.Artifact) error {
	want, err := core.Front(r.Source, r.Config())
	if err != nil {
		return err
	}
	if art.Stages.Final != want.Stages.Final {
		return fmt.Errorf("mirrored front end differs from core.Front:\n%s\nwant:\n%s", art.Stages.Final, want.Stages.Final)
	}
	return nil
}

// per returns x / n, or 0 when n is 0.
func per(x float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return x / float64(n)
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
