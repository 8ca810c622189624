package core

import (
	"fmt"
	"sync"
	"testing"

	"purec/internal/comp"
)

// TestProgramCacheHit checks the content-addressed build cache:
// building the same (source, Config) twice returns the identical
// Program without recompiling; changing any compile-relevant field
// misses; run-state fields (TeamSize, Stdout) do not affect the key.
func TestProgramCacheHit(t *testing.T) {
	cache := NewProgramCache(8)
	cfg := Config{Parallelize: true, TeamSize: 2, Cache: cache}

	r1, err := Build(matmulSrc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheHit {
		t.Fatal("first build reported a cache hit")
	}
	r2, err := Build(matmulSrc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit {
		t.Fatal("second identical build missed the cache")
	}
	if r1.Program != r2.Program {
		t.Fatal("cache hit returned a different Program")
	}
	if r1.Machine.Process == r2.Machine.Process {
		t.Fatal("cached builds must still get fresh Processes")
	}

	// Run-state differences share the Program.
	cfg3 := cfg
	cfg3.TeamSize = 7
	r3, err := Build(matmulSrc, cfg3)
	if err != nil {
		t.Fatal(err)
	}
	if !r3.CacheHit || r3.Program != r1.Program {
		t.Fatal("TeamSize change must not change the cache key")
	}

	// Compile-relevant differences miss.
	cfg4 := cfg
	cfg4.Backend = comp.BackendICC
	r4, err := Build(matmulSrc, cfg4)
	if err != nil {
		t.Fatal(err)
	}
	if r4.CacheHit || r4.Program == r1.Program {
		t.Fatal("Backend change must miss the cache")
	}
	cfg5 := cfg
	cfg5.Defines = map[string]string{"EXTRA": "1"}
	if r5, err := Build(matmulSrc, cfg5); err != nil {
		t.Fatal(err)
	} else if r5.CacheHit {
		t.Fatal("Defines change must miss the cache")
	}
	cfg6 := cfg
	cfg6.NoAlias = true
	if r6, err := Build(matmulSrc, cfg6); err != nil {
		t.Fatal(err)
	} else if r6.CacheHit || r6.Program == r1.Program {
		t.Fatal("NoAlias change must miss the cache (it changes which nests parallelize)")
	}

	hits, misses := cache.Stats()
	if hits != 2 || misses != 4 {
		t.Fatalf("stats = %d hits / %d misses, want 2/4", hits, misses)
	}

	// Cached programs still execute correctly per Process.
	v1, err := r1.Machine.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	v2, err := r2.Machine.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatalf("cached builds disagree: %d vs %d", v1, v2)
	}
}

// TestProgramCacheNoCache verifies the bypass switch.
func TestProgramCacheNoCache(t *testing.T) {
	cache := NewProgramCache(8)
	cfg := Config{Parallelize: true, Cache: cache, NoCache: true}
	for i := 0; i < 2; i++ {
		res, err := Build(matmulSrc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheHit {
			t.Fatal("NoCache build reported a cache hit")
		}
	}
	if cache.Len() != 0 {
		t.Fatalf("NoCache builds populated the cache (%d entries)", cache.Len())
	}
}

// TestProgramCacheEviction checks the capacity bound.
func TestProgramCacheEviction(t *testing.T) {
	cache := NewProgramCache(2)
	srcs := []string{
		"int main(void) { return 1; }",
		"int main(void) { return 2; }",
		"int main(void) { return 3; }",
	}
	for _, s := range srcs {
		if _, _, _, err := BuildProgram(s, Config{Cache: cache}); err != nil {
			t.Fatal(err)
		}
	}
	if cache.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", cache.Len())
	}
	// The oldest entry was evicted: rebuilding it misses.
	if _, _, hit, err := BuildProgram(srcs[0], Config{Cache: cache}); err != nil {
		t.Fatal(err)
	} else if hit {
		t.Fatal("evicted entry reported a cache hit")
	}
	// The newest survives.
	if _, _, hit, err := BuildProgram(srcs[2], Config{Cache: cache}); err != nil {
		t.Fatal(err)
	} else if !hit {
		t.Fatal("fresh entry was evicted prematurely")
	}
}

// TestProgramCacheLRUPromotion: a hit promotes its entry, so a hot
// program survives capacity pressure that evicts colder ones (pure FIFO
// would drop the hot entry first).
func TestProgramCacheLRUPromotion(t *testing.T) {
	cache := NewProgramCache(2)
	hot := "int main(void) { return 1; }"
	cold := "int main(void) { return 2; }"
	fresh := "int main(void) { return 3; }"
	for _, s := range []string{hot, cold} {
		if _, _, _, err := BuildProgram(s, Config{Cache: cache}); err != nil {
			t.Fatal(err)
		}
	}
	// Touch the oldest entry, then insert a third program.
	if _, _, hit, err := BuildProgram(hot, Config{Cache: cache}); err != nil || !hit {
		t.Fatalf("hot rebuild: hit=%v err=%v", hit, err)
	}
	if _, _, _, err := BuildProgram(fresh, Config{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	// The promoted hot entry survives; the cold one was evicted.
	if _, _, hit, err := BuildProgram(hot, Config{Cache: cache}); err != nil || !hit {
		t.Fatalf("hot entry was evicted despite promotion: hit=%v err=%v", hit, err)
	}
	if _, _, hit, err := BuildProgram(cold, Config{Cache: cache}); err != nil || hit {
		t.Fatalf("cold entry should have been the eviction victim: hit=%v err=%v", hit, err)
	}
}

// TestProgramCacheInFlightNotEvicted: an entry whose singleflight build
// is still running must not be evicted by a concurrent insert — other
// builders hold a reference to it and a same-key insert would rerun the
// pipeline mid-build.
func TestProgramCacheInFlightNotEvicted(t *testing.T) {
	cache := NewProgramCache(1)
	// Plant an in-flight entry by hand: present in the table, once not
	// yet completed (done unset).
	var inflightKey CacheKey
	inflightKey[0] = 0xAB
	inflight := &cacheEntry{}
	cache.mu.Lock()
	cache.entries[inflightKey] = inflight
	cache.order = append(cache.order, inflightKey)
	cache.mu.Unlock()

	// A real build over capacity must keep the in-flight entry.
	if _, _, _, err := BuildProgram("int main(void) { return 4; }", Config{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	cache.mu.Lock()
	_, stillThere := cache.entries[inflightKey]
	n := len(cache.entries)
	cache.mu.Unlock()
	if !stillThere {
		t.Fatal("in-flight entry was evicted mid-build")
	}
	if n != 2 {
		t.Fatalf("cache holds %d entries, want 2 (capacity temporarily exceeded)", n)
	}

	// Once the in-flight build finishes it becomes evictable again.
	inflight.done.Store(true)
	if _, _, _, err := BuildProgram("int main(void) { return 5; }", Config{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	cache.mu.Lock()
	_, stillThere = cache.entries[inflightKey]
	cache.mu.Unlock()
	if stillThere {
		t.Fatal("finished placeholder entry survived eviction pressure")
	}
}

// TestProgramCacheSingleflight: concurrent builds of the same key run
// the pipeline once and all receive the same Program (re-entrancy of
// the build pipeline).
func TestProgramCacheSingleflight(t *testing.T) {
	cache := NewProgramCache(8)
	cfg := Config{Parallelize: true, Cache: cache}
	const n = 8
	progs := make([]*comp.Program, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			prog, _, _, err := BuildProgram(matmulSrc, cfg)
			progs[i], errs[i] = prog, err
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("build %d: %v", i, errs[i])
		}
		if progs[i] != progs[0] {
			t.Fatalf("build %d compiled a separate Program", i)
		}
	}
	if _, misses := cache.Stats(); misses != 1 {
		t.Fatalf("pipeline ran %d times for one key", misses)
	}
}

// TestProgramCacheDropsErrors: failed builds must not occupy cache
// slots (they would evict valid Programs and report as hits).
func TestProgramCacheDropsErrors(t *testing.T) {
	cache := NewProgramCache(8)
	bad := "int main(void { return 0; }"
	for i := 0; i < 2; i++ {
		if _, _, _, err := BuildProgram(bad, Config{Cache: cache}); err == nil {
			t.Fatal("expected build error")
		}
	}
	if cache.Len() != 0 {
		t.Fatalf("error builds left %d cache entries", cache.Len())
	}
	if _, misses := cache.Stats(); misses != 2 {
		t.Fatalf("misses = %d, want 2 (error entries must not hit)", misses)
	}
}

// TestBuildKeyedStoresUnderGivenKey: the keyed entry point files the
// build under the key it is handed (both cache layers), and
// BuildDetail is the same path with the key computed from the request.
func TestBuildKeyedStoresUnderGivenKey(t *testing.T) {
	disk, err := NewDiskCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewProgramCache(8).WithDisk(disk)
	src := "int main(void) { return 0; }"
	cfg := Config{Parallelize: true}
	key := Key(src, cfg)
	if _, _, from, err := cache.BuildKeyed(key, src, cfg); err != nil || from != SourceCompiled {
		t.Fatalf("first keyed build: %v, %v", from, err)
	}
	if !cache.Contains(key) {
		t.Fatal("keyed build not stored under its key")
	}
	if _, ok := disk.Load(src, key, cfg); !ok {
		t.Fatal("keyed build not written through to disk under its key")
	}
	if _, _, from, err := cache.BuildDetail(src, cfg); err != nil || from != SourceMemory {
		t.Fatalf("BuildDetail after BuildKeyed: %v, %v; want a memory hit", from, err)
	}
	// A different key is a different entry, even for the same source.
	other := Key(src+" ", cfg)
	if _, _, from, err := cache.BuildKeyed(other, src, cfg); err != nil || from != SourceCompiled {
		t.Fatalf("build under a second key: %v, %v; want compiled", from, err)
	}
	if !cache.Contains(other) || cache.Len() != 2 {
		t.Fatalf("want entries under both keys, have %d", cache.Len())
	}
}

// TestProgramCacheOnEvict: every key LRU eviction drops is reported to
// the OnEvict hook, once.
func TestProgramCacheOnEvict(t *testing.T) {
	var evicted []CacheKey
	cache := NewProgramCache(2).OnEvict(func(k CacheKey) { evicted = append(evicted, k) })
	var keys []CacheKey
	for i := 0; i < 5; i++ {
		src := fmt.Sprintf("int main(void) { return %d; }", i)
		keys = append(keys, Key(src, Config{}))
		if _, _, _, err := cache.BuildDetail(src, Config{}); err != nil {
			t.Fatal(err)
		}
	}
	if len(evicted) != 3 || evicted[0] != keys[0] || evicted[1] != keys[1] || evicted[2] != keys[2] {
		t.Fatalf("evicted %v, want the three oldest keys", evicted)
	}
	for _, k := range evicted {
		if cache.Contains(k) {
			t.Fatal("evicted key still cached")
		}
	}
}
