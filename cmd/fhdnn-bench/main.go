// Command fhdnn-bench measures the blocked compute kernels against replicas
// of the pre-blocking serial kernels, sweeps them across worker-pool sizes
// (default 1/2/4/8 via tensor.SetWorkers), and writes the results as a
// tracked JSON baseline (BENCH_pr8.json): one row per (kernel, workers)
// with ns/op, MB/s and allocs/op, a speedups entry per kernel (blocked vs
// naive at one worker), and per-kernel scaling factors relative to the
// one-worker row. Run it via `make bench`; commit the refreshed file when
// kernel work changes the numbers on the reference runner.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"fhdnn/internal/hdc"
	"fhdnn/internal/tensor"
)

// Result is one benchmark row. MBPerS is derived from the operand bytes a
// single iteration touches (inputs + outputs, each counted once). Workers
// is the tensor pool size the row ran under, recorded per row because a
// single report mixes worker counts.
type Result struct {
	Name        string  `json:"name"`
	Workers     int     `json:"workers"`
	NsPerOp     int64   `json:"ns_op"`
	MBPerS      float64 `json:"mb_s"`
	AllocsPerOp int64   `json:"allocs_op"`
}

// Report is the schema of BENCH_pr8.json. Speedups holds one
// "<kernel>" entry per swept kernel: blocked at one worker vs the naive
// serial replica. Scaling holds, per kernel, the throughput factor of each
// swept worker count relative to that kernel's one-worker row (only
// emitted when the sweep includes one worker).
type Report struct {
	GoVersion   string                        `json:"go_version"`
	GOARCH      string                        `json:"goarch"`
	NumCPU      int                           `json:"num_cpu"`
	GOMAXPROCS  int                           `json:"gomaxprocs"`
	FastKernels bool                          `json:"fast_kernels"`
	WorkerSweep []int                         `json:"worker_sweep"`
	Results     []Result                      `json:"results"`
	Speedups    map[string]float64            `json:"speedups"`
	Scaling     map[string]map[string]float64 `json:"scaling"`
}

// naiveMatMulInto replicates the pre-blocking MatMul kernel (i-k-j AXPY
// with a zero-skip, single goroutine).
func naiveMatMulInto(c, a, b []float32, m, k, n int) {
	for i := range c[:m*n] {
		c[i] = 0
	}
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		crow := c[i*n : (i+1)*n]
		for kk, av := range arow {
			if av == 0 {
				continue
			}
			brow := b[kk*n : (kk+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// naiveMatMulTransBInto replicates the pre-packing dot-product kernel: one
// serial ascending-k accumulator per output element, contiguous row-row
// dots, single goroutine.
func naiveMatMulTransBInto(c, a, b []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		crow := c[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			var s float32
			for kk, av := range arow {
				s += av * brow[kk]
			}
			crow[j] = s
		}
	}
}

// naiveMatVecInto replicates the pre-blocking matrix-vector kernel: one
// single-accumulator row dot per output element.
func naiveMatVecInto(y, a, x []float32, m, n int) {
	for i := 0; i < m; i++ {
		row := a[i*n : (i+1)*n]
		var s float32
		for j, xv := range x {
			s += row[j] * xv
		}
		y[i] = s
	}
}

// naiveEncodeBatch replicates the pre-blocking batch encoder: one
// single-accumulator matrix-vector product per sample, then sign.
func naiveEncodeBatch(phi []float32, d, n int, z *tensor.Tensor, out *tensor.Tensor) {
	batch := z.Dim(0)
	for s := 0; s < batch; s++ {
		row := z.Data()[s*n : (s+1)*n]
		h := out.Data()[s*d : (s+1)*d]
		for i := 0; i < d; i++ {
			prow := phi[i*n : (i+1)*n]
			sum := float32(0)
			for j, v := range prow {
				sum += v * row[j]
			}
			if sum >= 0 {
				h[i] = 1
			} else {
				h[i] = -1
			}
		}
	}
}

func run(name string, workers int, bytesPerOp int64, fn func()) Result {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fn()
		}
	})
	nsPerOp := r.NsPerOp()
	mbs := 0.0
	if nsPerOp > 0 {
		mbs = float64(bytesPerOp) / float64(nsPerOp) * 1e9 / 1e6
	}
	res := Result{
		Name:        name,
		Workers:     workers,
		NsPerOp:     nsPerOp,
		MBPerS:      mbs,
		AllocsPerOp: r.AllocsPerOp(),
	}
	fmt.Printf("%-28s w=%-2d %12d ns/op %10.1f MB/s %6d allocs/op\n",
		res.Name, res.Workers, res.NsPerOp, res.MBPerS, res.AllocsPerOp)
	return res
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

func parseWorkers(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.Atoi(f)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("invalid worker count %q", f)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty worker sweep")
	}
	return out, nil
}

func main() {
	out := flag.String("out", "BENCH_pr8.json", "output JSON path ('' to skip writing)")
	workersFlag := flag.String("workers", "1,2,4,8", "comma-separated tensor worker counts to sweep")
	flag.Parse()

	sweep, err := parseWorkers(*workersFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fhdnn-bench:", err)
		os.Exit(1)
	}

	rep := Report{
		GoVersion:   runtime.Version(),
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		FastKernels: tensor.FastKernels(),
		WorkerSweep: sweep,
		Speedups:    map[string]float64{},
		Scaling:     map[string]map[string]float64{},
	}

	origWorkers := tensor.SetWorkers(1)
	defer tensor.SetWorkers(origWorkers)

	// nsAt[kernel][workers] backs the speedup and scaling tables.
	nsAt := map[string]map[int]int64{}
	naive := func(name string, bytesPerOp int64, fn func()) {
		tensor.SetWorkers(1)
		rep.Results = append(rep.Results, run(name, 1, bytesPerOp, fn))
	}
	kernel := func(name string, bytesPerOp int64, fn func()) {
		nsAt[name] = map[int]int64{}
		for _, w := range sweep {
			tensor.SetWorkers(w)
			res := run(name, w, bytesPerOp, fn)
			rep.Results = append(rep.Results, res)
			nsAt[name][w] = res.NsPerOp
		}
		tensor.SetWorkers(1)
	}

	// --- MatMul / MatMulTransB 256x256x256 ---
	const mm = 256
	rng := rand.New(rand.NewSource(1))
	a := tensor.Randn(rng, 1, mm, mm)
	b := tensor.Randn(rng, 1, mm, mm)
	dst := tensor.New(mm, mm)
	mmBytes := int64(3 * mm * mm * 4)
	naive("MatMulNaive256", mmBytes, func() {
		naiveMatMulInto(dst.Data(), a.Data(), b.Data(), mm, mm, mm)
	})
	naive("MatMulTransBNaive256", mmBytes, func() {
		naiveMatMulTransBInto(dst.Data(), a.Data(), b.Data(), mm, mm, mm)
	})
	kernel("MatMulInto256", mmBytes, func() { tensor.MatMulInto(dst, a, b) })
	kernel("MatMulTransBInto256", mmBytes, func() { tensor.MatMulTransBInto(dst, a, b) })

	// --- MatVec 2048x512 ---
	const mvM, mvN = 2048, 512
	mva := tensor.Randn(rand.New(rand.NewSource(4)), 1, mvM, mvN)
	mvx := tensor.Randn(rand.New(rand.NewSource(5)), 1, mvN).Data()
	mvy := make([]float32, mvM)
	mvBytes := int64((mvM*mvN + mvN + mvM) * 4)
	naive("MatVecNaive2048x512", mvBytes, func() {
		naiveMatVecInto(mvy, mva.Data(), mvx, mvM, mvN)
	})
	kernel("MatVecInto2048x512", mvBytes, func() { tensor.MatVecInto(mvy, mva, mvx) })

	// --- EncodeBatch batch=64, d=10000, n=512 ---
	const batch, d, n = 64, 10000, 512
	enc := hdc.NewEncoder(rand.New(rand.NewSource(2)), d, n)
	z := tensor.Randn(rand.New(rand.NewSource(3)), 1, batch, n)
	h := tensor.New(batch, d)
	encBytes := int64((batch*n + d*n + batch*d) * 4)
	naive("EncodeBatchNaive", encBytes, func() {
		naiveEncodeBatch(enc.Phi.Data(), d, n, z, h)
	})
	kernel("EncodeBatch", encBytes, func() { enc.EncodeBatchInto(h, z) })

	// --- single-vector EncodeInto (allocation check rides along) ---
	zRow := z.Data()[:n]
	hRow := make([]float32, d)
	kernel("EncodeInto", int64((n+d*n+d)*4), func() { enc.EncodeInto(hRow, zRow) })

	// Speedups: blocked kernel at one worker vs its naive serial replica.
	// EncodeInto has no separate naive replica; EncodeBatchNaive is the
	// per-sample loop, so its per-row cost is the honest baseline.
	speedup := func(key, kern, base string, baseScale float64) {
		kw, ok := nsAt[kern][1]
		if !ok {
			return
		}
		for _, r := range rep.Results {
			if r.Name == base {
				rep.Speedups[key] = float64(r.NsPerOp) * baseScale / float64(kw)
				fmt.Printf("speedup %-20s %.2fx\n", key, rep.Speedups[key])
				return
			}
		}
	}
	speedup("MatMul256", "MatMulInto256", "MatMulNaive256", 1)
	speedup("MatMulTransB256", "MatMulTransBInto256", "MatMulTransBNaive256", 1)
	speedup("MatVec2048x512", "MatVecInto2048x512", "MatVecNaive2048x512", 1)
	speedup("EncodeBatch", "EncodeBatch", "EncodeBatchNaive", 1)
	speedup("EncodeInto", "EncodeInto", "EncodeBatchNaive", 1.0/batch)

	// Scaling: per-kernel throughput factor of every swept worker count
	// relative to that kernel's one-worker row.
	for name, byW := range nsAt {
		base, ok := byW[1]
		if !ok {
			continue
		}
		m := map[string]float64{}
		for w, ns := range byW {
			if w == 1 || ns == 0 {
				continue
			}
			m[strconv.Itoa(w)] = float64(base) / float64(ns)
		}
		if len(m) > 0 {
			rep.Scaling[name] = m
			fmt.Printf("scaling %-20s %v\n", name, m)
		}
	}

	if *out != "" {
		if err := writeJSON(*out, &rep); err != nil {
			fmt.Fprintln(os.Stderr, "fhdnn-bench:", err)
			os.Exit(1)
		}
	}
}
