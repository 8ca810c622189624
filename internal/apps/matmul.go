// Package apps contains the paper's four evaluation applications
// (Sect. 4.1) as mini-C sources, in the variants the evaluation compares:
//
//   - the pure version (functions in the loop nests, the paper's
//     contribution makes these parallelizable);
//   - the manually inlined version that classic PluTo(-SICA) can process
//     (matrix multiplication and heat only — the paper states the two
//     real-world codes cannot be handled by the polyhedral tools at all);
//   - hand-parallelized versions with explicit OpenMP pragmas;
//   - native Go reference implementations mirroring the execution
//     model's float semantics, used to verify every variant.
//
// Problem sizes are injected through #define macros, the -D analog.
package apps

import (
	"fmt"

	"purec/internal/mem"
	"purec/internal/rt"
)

// MatmulSrc is the paper's Listing 7: C = A·Bᵀ with a pure dot product.
// The matrix initialization uses malloc inside loops; because malloc is
// in the pure hashset, the pure tool chain parallelizes the init loop as
// well — the effect the paper discovered in Fig. 3.
const MatmulSrc = `
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
            A[i][j] = (float)((i + j) % 13) * 0.25f;
            Bt[i][j] = (float)((i - j) % 7) * 0.5f;
        }
}

int main(void) {
    initmat();
    for (int i = 0; i < N; ++i)
        for (int j = 0; j < N; ++j)
            C[i][j] = dot((pure float*)A[i], (pure float*)Bt[j], N);
    return 0;
}
`

// MatmulChecksumSrc is Listing 7 with a salted initialization and a
// checksum print: the purecd cold-build and disk-spill template
// (purecdbench), which defines BUILD_ID per program to make each cache
// key distinct without changing the output.
const MatmulChecksumSrc = `
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

// MatmulChecksumDefines sizes MatmulChecksumSrc: n×n matrices, the
// initialization salt and a build id that only changes the cache key.
func MatmulChecksumDefines(n, salt int, buildID string) map[string]string {
	return map[string]string{"N": fmt.Sprintf("%d", n), "SALT": fmt.Sprintf("%d", salt), "BUILD_ID": buildID}
}

// MatmulNoInitParSrc is the pure variant with the matrix allocation
// manually excluded from parallelization (the black bars of Fig. 3): an
// impure no-op call in the malloc loop keeps it out of every SCoP.
const MatmulNoInitParSrc = `
float **A, **Bt, **C;

void serialize(void) { }

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
        serialize();
        A[i] = (float*)malloc(N * sizeof(float));
        Bt[i] = (float*)malloc(N * sizeof(float));
        C[i] = (float*)malloc(N * sizeof(float));
    }
    for (int i = 0; i < N; i++)
        for (int j = 0; j < N; j++) {
            A[i][j] = (float)((i + j) % 13) * 0.25f;
            Bt[i][j] = (float)((i - j) % 7) * 0.5f;
        }
}

int main(void) {
    initmat();
    for (int i = 0; i < N; ++i)
        for (int j = 0; j < N; ++j)
            C[i][j] = dot((pure float*)A[i], (pure float*)Bt[j], N);
    return 0;
}
`

// MatmulInlinedSrc is the version classic PluTo can handle: the dot
// product is manually inlined ("the code of the pure functions must be
// inlined manually due to the limitations of the polyhedral
// transformers", Sect. 4.2), leaving a perfect 3-deep affine nest.
const MatmulInlinedSrc = `
float **A, **Bt, **C;

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
            A[i][j] = (float)((i + j) % 13) * 0.25f;
            Bt[i][j] = (float)((i - j) % 7) * 0.5f;
        }
}

int main(void) {
    initmat();
    for (int i = 0; i < N; ++i)
        for (int j = 0; j < N; ++j)
            C[i][j] = 0.0f;
    for (int i = 0; i < N; ++i)
        for (int j = 0; j < N; ++j)
            for (int k = 0; k < N; ++k)
                C[i][j] += A[i][k] * Bt[j][k];
    return 0;
}
`

// MatmulDefines injects the problem size.
func MatmulDefines(n int) map[string]string {
	return map[string]string{"N": fmt.Sprintf("%d", n)}
}

// MatmulRef computes the expected C matrix with the execution model's
// float semantics (float64 arithmetic, float32 rounding at stores), for
// verification of every variant.
func MatmulRef(n int) [][]float32 {
	a := make([][]float32, n)
	bt := make([][]float32, n)
	for i := 0; i < n; i++ {
		a[i] = make([]float32, n)
		bt[i] = make([]float32, n)
		for j := 0; j < n; j++ {
			a[i][j] = float32(float64((i+j)%13) * 0.25)
			bt[i][j] = float32(float64((i-j)%7) * 0.5)
		}
	}
	c := make([][]float32, n)
	for i := 0; i < n; i++ {
		c[i] = make([]float32, n)
		for j := 0; j < n; j++ {
			var res float32
			for k := 0; k < n; k++ {
				res += float32(float64(a[i][k]) * float64(bt[j][k]))
			}
			c[i][j] = res
		}
	}
	return c
}

// MatmulMKL is the hand-tuned comparator standing in for the Intel MKL
// matrix multiplication (Sect. 4.3.1): native Go, register-blocked inner
// kernel over the transposed operand, parallel over row blocks.
func MatmulMKL(a, bt [][]float32, team *rt.Team) [][]float32 {
	n := len(a)
	c := make([][]float32, n)
	for i := range c {
		c[i] = make([]float32, n)
	}
	team.ParallelFor(0, int64(n-1), rt.Static, 0, func(_ int, lo, hi int64) {
		for i := lo; i <= hi; i++ {
			ai := a[i]
			ci := c[i]
			for j := 0; j < n; j++ {
				bj := bt[j]
				var s0, s1, s2, s3 float32
				k := 0
				for ; k+4 <= n; k += 4 {
					s0 += ai[k] * bj[k]
					s1 += ai[k+1] * bj[k+1]
					s2 += ai[k+2] * bj[k+2]
					s3 += ai[k+3] * bj[k+3]
				}
				s := s0 + s1 + s2 + s3
				for ; k < n; k++ {
					s += ai[k] * bj[k]
				}
				ci[j] = s
			}
		}
	})
	return c
}

// MatmulInputs builds the A and Bt matrices used by MatmulMKL, matching
// the mini-C initialization.
func MatmulInputs(n int) (a, bt [][]float32) {
	a = make([][]float32, n)
	bt = make([][]float32, n)
	for i := 0; i < n; i++ {
		a[i] = make([]float32, n)
		bt[i] = make([]float32, n)
		for j := 0; j < n; j++ {
			a[i][j] = float32(float64((i+j)%13) * 0.25)
			bt[i][j] = float32(float64((i-j)%7) * 0.5)
		}
	}
	return a, bt
}

// ReadMatrix extracts an n×n float matrix from a machine global of type
// float** (rows allocated with malloc).
func ReadMatrix(p mem.Pointer, n int) [][]float32 {
	out := make([][]float32, n)
	for i := 0; i < n; i++ {
		row := p.Add(int64(i)).LoadPtr()
		out[i] = make([]float32, n)
		for j := 0; j < n; j++ {
			out[i][j] = float32(row.Add(int64(j)).LoadFloat())
		}
	}
	return out
}
