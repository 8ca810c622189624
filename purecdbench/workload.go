package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"

	"purec/internal/core"
	"purec/internal/serve"
)

// Program templates. Every request of a workload comes from one of
// these; the workload seed only picks values that change the output,
// never the amount of work, so runs with different seeds cost the same.

// axpySrc is the warm-hit guest: one axpy sweep over N floats, small
// enough that HTTP, the cache lookup and Process acquisition dominate.
const axpySrc = `
float *x, *y;

int main(void) {
    x = (float*)malloc(N * sizeof(float));
    y = (float*)malloc(N * sizeof(float));
    for (int i = 0; i < N; i++) {
        x[i] = (float)((i * SALT) % 13) * 0.25f;
        y[i] = (float)((i + SALT) % 7) * 0.5f;
    }
    for (int i = 0; i < N; i++)
        y[i] = 1.5f * x[i] + y[i];
    int cs = 0;
    for (int i = 0; i < N; i++)
        cs = (cs * 31 + (int)(y[i] * 4.0f)) % 1000003;
    printf("axpy n=%d salt=%d checksum=%d\n", N, SALT, cs);
    return 0;
}
`

// matmulSrc is the paper's Listing 7 (pure dot product, malloc inside
// the initialization loops) with a checksum print. cold-build and
// disk-spill use it; BUILD_ID is defined per program and never used, so
// it makes each program's cache key distinct without changing its
// output.
const matmulSrc = `
float **A, **Bt, **C;

pure float mult(float a, float b) {
    return a * b;
}

pure float dot(pure float* a, pure float* b, int size) {
    float res = 0.0f;
    for (int i = 0; i < size; ++i)
        res += mult(a[i], b[i]);
    return res;
}

void initmat(void) {
    A = (float**)malloc(N * sizeof(float*));
    Bt = (float**)malloc(N * sizeof(float*));
    C = (float**)malloc(N * sizeof(float*));
    for (int i = 0; i < N; i++) {
        A[i] = (float*)malloc(N * sizeof(float));
        Bt[i] = (float*)malloc(N * sizeof(float));
        C[i] = (float*)malloc(N * sizeof(float));
    }
    for (int i = 0; i < N; i++)
        for (int j = 0; j < N; j++) {
            A[i][j] = (float)((i + j + SALT) % 13) * 0.25f;
            Bt[i][j] = (float)((i - j + SALT) % 7) * 0.5f;
        }
}

int main(void) {
    initmat();
    for (int i = 0; i < N; ++i)
        for (int j = 0; j < N; ++j)
            C[i][j] = dot((pure float*)A[i], (pure float*)Bt[j], N);
    int cs = 0;
    for (int i = 0; i < N; i++)
        for (int j = 0; j < N; j++)
            cs = (cs * 31 + (int)(C[i][j] * 8.0f)) % 1000003;
    printf("matmul n=%d salt=%d checksum=%d\n", N, SALT, cs);
    return 0;
}
`

// compositeSrc is the run-heavy guest: the satellite retrieval (pure
// call with data-dependent control flow), an axpy sweep that fuses and
// a hist[data[i]]++ array reduction, each in its own phase function so
// the traced run can time them one by one.
const compositeSrc = `
float **cube, *lut, *aod;
float *x, *y;
int data[HN];
int out[BINS];

pure float retrieve(pure float* px, pure float* table, int bands, int pixel) {
    float ref = 0.0f;
    for (int b = 0; b < bands; b++)
        ref += px[b] * table[b];
    ref = ref / (float)bands;
    float tau = 0.1f;
    int iters = 2 + (pixel * MAXITERS) / NPIX + (pixel * 7919) % 8;
    if (ref > 0.35f)
        iters = iters + MAXITERS / 4;
    for (int it = 0; it < iters; it++) {
        float err = 0.0f;
        for (int b = 0; b < bands; b++) {
            float model = tau * table[b] + (1.0f - tau) * 0.2f;
            float d = px[b] - model;
            if (d < 0.0f)
                d = -d;
            err += d;
        }
        err = err / (float)bands;
        if (err < 0.01f)
            return tau;
        if (ref > tau)
            tau = tau + err * 0.05f;
        else
            tau = tau - err * 0.05f;
        if (tau < 0.0f)
            tau = 0.0f;
        if (tau > 5.0f)
            tau = 5.0f;
    }
    return tau;
}

int phase_init(void) {
    cube = (float**)malloc(NPIX * sizeof(float*));
    lut = (float*)malloc(BANDS * sizeof(float));
    aod = (float*)malloc(NPIX * sizeof(float));
    for (int b = 0; b < BANDS; b++)
        lut[b] = 0.3f + 0.4f * (float)(b % 5) / 5.0f;
    for (int p = 0; p < NPIX; p++) {
        cube[p] = (float*)malloc(BANDS * sizeof(float));
        for (int b = 0; b < BANDS; b++)
            cube[p][b] = 0.1f + (float)((p * 31 + b * 17) % 97) / 97.0f * (0.2f + 0.6f * (float)p / (float)NPIX);
    }
    x = (float*)malloc(AN * sizeof(float));
    y = (float*)malloc(AN * sizeof(float));
    for (int i = 0; i < AN; i++) {
        x[i] = (float)((i * SALT) % 13) * 0.25f;
        y[i] = (float)(i % 7) * 0.5f;
    }
    for (int i = 0; i < HN; i++)
        data[i] = (i * 1103515245 + SALT) % BINS;
    return 0;
}

int phase_sat(void) {
    for (int p = 0; p < NPIX; p++)
        aod[p] = retrieve((pure float*)cube[p], (pure float*)lut, BANDS, p);
    return 0;
}

int phase_axpy(void) {
    float a = 1.5f;
    for (int r = 0; r < REPS; r++) {
        for (int i = 0; i < AN; i++)
            y[i] = a * x[i] + y[i];
    }
    return 0;
}

int phase_hist(void) {
    int hist[BINS];
    for (int b = 0; b < BINS; b++)
        hist[b] = 0;
    for (int i = 0; i < HN; i++)
        hist[data[i]]++;
    for (int b = 0; b < BINS; b++)
        out[b] = hist[b];
    return 0;
}

int main(void) {
    phase_init();
    phase_sat();
    phase_axpy();
    phase_hist();
    int cs = 0;
    for (int p = 0; p < NPIX; p++)
        cs = (cs * 31 + (int)(aod[p] * 1000.0f)) % 1000003;
    for (int i = 0; i < AN; i++)
        cs = (cs * 31 + (int)(y[i] * 4.0f)) % 1000003;
    for (int b = 0; b < BINS; b++)
        cs = (cs * 31 + out[b]) % 1000003;
    printf("composite salt=%d checksum=%d\n", SALT, cs);
    return 0;
}
`

// compositePhases name the phase functions of compositeSrc
// (phase_<name>) in main's order.
var compositePhases = []string{"init", "sat", "axpy", "hist"}

// compositeDefines sizes the run-heavy guest; only SALT varies.
func compositeDefines(salt int) map[string]string {
	return map[string]string{
		"NPIX": "600", "BANDS": "16", "MAXITERS": "24",
		"AN": "8192", "REPS": "96",
		"HN": "262144", "BINS": "64",
		"SALT": strconv.Itoa(salt),
	}
}

// Mode is the build source a workload's measured requests take.
type Mode string

// Build sources, named as X-Purecd-Build reports them.
const (
	ModeMemory   Mode = "memory"
	ModeCompiled Mode = "compiled"
	ModeDisk     Mode = "disk"
)

// Request is one POST /run of a workload.
type Request struct {
	Source  string
	Defines map[string]string
	Options serve.RunOptions
	// Ref indexes the workload's output references.
	Ref int
	// Body is the encoded JSON request body.
	Body []byte
}

// Config returns the pipeline configuration purecd derives from the
// request (serve.Server.config with every option at its default).
func (r *Request) Config() core.Config {
	return core.Config{
		FileName:    "request.c",
		Defines:     r.Defines,
		Parallelize: !r.Options.Sequential,
	}
}

// Workload is one generated traffic mix: what set-up sends, what the
// measured phase sends, and the output references to check against.
type Workload struct {
	Name string
	Mode Mode
	// Clients is the number of closed-loop clients.
	Clients int
	// Cores is the team size every request asks for.
	Cores int
	// Build is sent one request at a time during set-up: first builds
	// and disk population.
	Build []Request
	// Warm is sent by all clients during set-up, after Build: pool
	// warm-up.
	Warm []Request
	// Measured is the timed sequence; client c sends every Clients-th
	// request starting at c.
	Measured []Request
	// Distinct lists programs the traced run probes layer by layer.
	Distinct []Request
	// Refs are the output-bearing parameter sets (the Defines of one
	// request per set); the oracle computes one reference each.
	Refs []Request
}

// Workload names. BENCHMARK.json lists all but warm-hit, which stays
// runnable by hand but is not gated: its latency drifts with the host
// by more than the largest bound (README.md, "Workloads").
var workloadNames = []string{"warm-hit", "cold-build", "disk-spill", "run-heavy"}

// nominalRate is each workload's request rate on a 2-vCPU x86 VM at
// the commit that defined the benchmark; a run sends seconds × rate
// requests, so every run of a seed sends the identical sequence and a
// faster program finishes the same work sooner.
var nominalRate = map[string]float64{
	"warm-hit":   10000,
	"cold-build": 220,
	"disk-spill": 850,
	"run-heavy":  36,
}

// Workload shape constants.
const (
	warmPrograms  = 64  // inside the default 128-entry memory cache
	spillPrograms = 256 // twice the default memory cache
	spillWarm     = 16  // disk hits sent during disk-spill set-up
	coldWarm      = 24  // cold builds sent during cold-build set-up
	salts         = 4   // output-bearing parameter sets of matmul workloads
	matmulN       = "8"
)

// newRequest builds and encodes one request.
func newRequest(src string, defs map[string]string, cores, ref int) Request {
	r := Request{Source: src, Defines: defs, Options: serve.RunOptions{Cores: cores}, Ref: ref}
	body, err := json.Marshal(serve.RunRequest{Source: r.Source, Defines: r.Defines, Options: r.Options})
	if err != nil {
		panic(err) // strings and ints always encode
	}
	r.Body = body
	return r
}

// distinctSalts draws n distinct SALT values in [1, 1000).
func distinctSalts(rng *rand.Rand, n int) []int {
	seen := map[int]bool{}
	var out []int
	for len(out) < n {
		s := 1 + rng.Intn(999)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// Generate builds workload name for the seed, measuring n requests.
// The same (name, seed, n, nproc) always yields the identical request
// sequence.
func Generate(name string, seed int64, n, nproc int) (*Workload, error) {
	if n < 1 {
		return nil, fmt.Errorf("request count %d < 1", n)
	}
	rng := rand.New(rand.NewSource(seed))
	w := &Workload{Name: name, Clients: 1, Cores: 1}
	switch name {
	case "warm-hit":
		w.Mode, w.Clients = ModeMemory, nproc
		progs := make([]Request, warmPrograms)
		for k, salt := range distinctSalts(rng, warmPrograms) {
			defs := map[string]string{"N": strconv.Itoa(64 + k), "SALT": strconv.Itoa(salt)}
			progs[k] = newRequest(axpySrc, defs, 1, k)
		}
		w.Refs, w.Distinct = progs, progs
		w.Build = shuffled(rng, progs)
		for c := 0; c < 2*nproc; c++ {
			w.Warm = append(w.Warm, shuffled(rng, progs)...)
		}
		// Whole shuffled rounds: every run visits each program equally
		// often, whatever the seed.
		for len(w.Measured) < n {
			w.Measured = append(w.Measured, shuffled(rng, progs)...)
		}
		w.Measured = w.Measured[:n]
	case "cold-build", "disk-spill":
		ss := distinctSalts(rng, salts)
		matmul := func(id string) Request {
			ref := rng.Intn(salts)
			defs := map[string]string{"N": matmulN, "SALT": strconv.Itoa(ss[ref]), "BUILD_ID": id}
			return newRequest(matmulSrc, defs, 1, ref)
		}
		for ref, salt := range ss {
			defs := map[string]string{"N": matmulN, "SALT": strconv.Itoa(salt)}
			w.Refs = append(w.Refs, newRequest(matmulSrc, defs, 1, ref))
		}
		if name == "cold-build" {
			w.Mode = ModeCompiled
			for i := 0; i < coldWarm; i++ {
				w.Build = append(w.Build, matmul(fmt.Sprintf("%d_w%d", seed, i)))
			}
			for i := 0; i < n; i++ {
				w.Measured = append(w.Measured, matmul(fmt.Sprintf("%d_m%d", seed, i)))
			}
			w.Distinct = w.Build
			break
		}
		// disk-spill: a fixed cycle over twice the memory cache, so the
		// LRU has always evicted a program before it comes round again.
		w.Mode = ModeDisk
		progs := make([]Request, spillPrograms)
		for k := range progs {
			progs[k] = matmul(fmt.Sprintf("%d_%d", seed, k))
		}
		progs = shuffled(rng, progs)
		w.Distinct = progs
		w.Build = progs
		w.Warm = progs[:spillWarm]
		for i := 0; i < n; i++ {
			w.Measured = append(w.Measured, progs[(spillWarm+i)%spillPrograms])
		}
	case "run-heavy":
		w.Mode, w.Cores = ModeMemory, nproc
		prog := newRequest(compositeSrc, compositeDefines(1+rng.Intn(999)), nproc, 0)
		w.Refs = []Request{prog}
		w.Distinct = w.Refs
		w.Build = w.Refs
		w.Warm = []Request{prog, prog}
		for i := 0; i < n; i++ {
			w.Measured = append(w.Measured, prog)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return w, nil
}

// shuffled returns a seeded permutation of rs.
func shuffled(rng *rand.Rand, rs []Request) []Request {
	out := make([]Request, len(rs))
	for i, j := range rng.Perm(len(rs)) {
		out[i] = rs[j]
	}
	return out
}

// nproc is the CPU count the workloads size themselves by.
func nproc() int { return runtime.NumCPU() }
