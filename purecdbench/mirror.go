package main

import (
	"bytes"
	"fmt"
	"runtime"

	"purec/internal/comp"
	"purec/internal/core"
	"purec/internal/mem"
	"purec/internal/rt"
)

// mirror replays requests through the layers' public functions in the
// order the daemon's handler calls them: core.Key, then the build path
// of the workload's mode, then ProcessPool.Get → Process.RunMain → Put.
// It keeps its own memory cache, disk cache and pools, fed the same
// request sequence as the daemon, so each call does the daemon's work.
type mirror struct {
	mem      *core.ProgramCache
	disk     *core.DiskCache
	pools    map[core.CacheKey]*comp.ProcessPool
	poolSize int
	// arenas holds the arena counters of each Process at first sight.
	arenas map[*comp.Process]mem.ArenaStats
}

func newMirror(dir string) (*mirror, error) {
	disk, err := core.NewDiskCache(dir, 0)
	if err != nil {
		return nil, err
	}
	return &mirror{
		mem:   core.NewProgramCache(128),
		disk:  disk,
		pools: map[core.CacheKey]*comp.ProcessPool{},
		// The daemon's default pool size is its default MaxConcurrent.
		poolSize: runtime.GOMAXPROCS(0),
		arenas:   map[*comp.Process]mem.ArenaStats{},
	}, nil
}

// served is what the mirror produced for one request.
type served struct {
	key    core.CacheKey
	source Mode
	stdout []byte
	ret    int64
	// art is the mirrored front end's artifact (compiled mode only).
	art *core.Artifact
}

// serve runs r through the chain of mode, recording spans under parent
// (tr may be nil).
func (m *mirror) serve(r *Request, mode Mode, tr *tracer, req string, parent int) (served, error) {
	cfg := r.Config()
	var out served
	tr.do(req, parent, "core.key", func() { out.key = core.Key(r.Source, cfg) })
	var (
		prog *comp.Program
		err  error
	)
	switch mode {
	case ModeMemory:
		var src core.BuildSource
		tr.do(req, parent, "core.lookup", func() { prog, _, src, err = m.mem.BuildDetail(r.Source, cfg) })
		out.source = Mode(src.String())
	case ModeDisk:
		var art *core.Artifact
		ok := false
		tr.do(req, parent, "core.disk_load", func() { art, ok = m.disk.Load(r.Source, out.key, cfg) })
		if !ok {
			return out, fmt.Errorf("mirror: disk miss for a disk-mode request")
		}
		tr.do(req, parent, "comp.compile", func() { prog, err = art.Compile(cfg) })
		out.source = ModeDisk
	case ModeCompiled:
		ok := false
		tr.do(req, parent, "core.disk_miss", func() { _, ok = m.disk.Load(r.Source, out.key, cfg) })
		if ok {
			return out, fmt.Errorf("mirror: disk hit for a compiled-mode request")
		}
		front := tr.begin(req, parent, "core.front")
		out.art, err = mirrorFront(r.Source, cfg, &stageMeter{tr: tr, req: req, parent: front})
		tr.end(front)
		if err != nil {
			return out, err
		}
		tr.do(req, parent, "comp.compile", func() { prog, err = out.art.Compile(cfg) })
		if err != nil {
			return out, err
		}
		tr.do(req, parent, "core.disk_store", func() { err = m.disk.Store(out.key, cfg, out.art) })
		out.source = ModeCompiled
	}
	if err != nil {
		return out, err
	}
	pool := m.pool(out.key, prog, r.Options.Cores)
	var proc *comp.Process
	tr.do(req, parent, "comp.pool_get", func() { proc, err = pool.Get() })
	if err != nil {
		return out, err
	}
	if _, seen := m.arenas[proc]; !seen {
		m.arenas[proc] = proc.ArenaStats()
	}
	var buf bytes.Buffer
	proc.SetStdout(&buf)
	tr.do(req, parent, "comp.run", func() { out.ret, err = proc.RunMain() })
	tr.do(req, parent, "comp.pool_put", func() { pool.Put(proc) })
	out.stdout = buf.Bytes()
	return out, err
}

// pool returns the program's pool, created on first use as the daemon
// creates it (the first Program seen for the key serves every later
// request of it).
func (m *mirror) pool(key core.CacheKey, prog *comp.Program, cores int) *comp.ProcessPool {
	if p, ok := m.pools[key]; ok {
		return p
	}
	if cores < 1 {
		cores = 1
	}
	p := prog.NewPool(comp.PoolOptions{Size: m.poolSize, NewTeam: func() *rt.Team { return rt.NewTeam(cores) }})
	m.pools[key] = p
	return p
}

// poolStats sums the counters of every pool.
func (m *mirror) poolStats() comp.PoolStats {
	var s comp.PoolStats
	for _, p := range m.pools {
		ps := p.Stats()
		s.Gets += ps.Gets
		s.Reuses += ps.Reuses
		s.Fresh += ps.Fresh
		s.Discarded += ps.Discarded
	}
	return s
}

// arenaRecycle returns the arena counters accumulated since each
// Process was first seen.
func (m *mirror) arenaRecycle() (reused, fresh uint64) {
	for p, first := range m.arenas {
		now := p.ArenaStats()
		reused += now.Reused - first.Reused
		fresh += now.Fresh - first.Fresh
	}
	return reused, fresh
}
