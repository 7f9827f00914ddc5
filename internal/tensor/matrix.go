// Package tensor provides the dense linear-algebra kernels that the rest
// of the system is built on: row-major float64 matrices with the handful
// of operations a from-scratch neural network needs (matrix products in
// the three orientations required by backpropagation, elementwise maps,
// row reductions and softmax).
//
// The package is deliberately small and allocation-conscious rather than
// general: it is the compute substrate for internal/nn, not a BLAS.
package tensor

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// Matrix is a dense, row-major matrix of float64 values.
//
// The zero value is an empty matrix; use New or one of the constructors
// for anything useful. Data is exported read-mostly: packages may iterate
// it directly for speed, but should mutate through methods so shape
// invariants hold.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (not copied) as a rows×cols matrix.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// FromRows builds a matrix by copying the given equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("tensor: ragged row %d: len %d != %d", i, len(r), cols))
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set stores v at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// CopyFrom copies src's contents into m; shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	m.mustSameShape(src, "CopyFrom")
	copy(m.Data, src.Data)
}

// Reshape resizes m to rows×cols reusing its backing storage when the
// capacity suffices (growing it otherwise) and returns m. The contents
// after a Reshape are unspecified — callers must fully overwrite them.
// This is the primitive behind every reused scratch buffer: shape
// changes between steps (e.g. a final partial batch) without
// reallocating.
func (m *Matrix) Reshape(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
	}
	m.Data = m.Data[:n]
	m.Rows, m.Cols = rows, cols
	return m
}

// Zero sets every element of m to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element of m to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// SameShape reports whether m and o have identical dimensions.
func (m *Matrix) SameShape(o *Matrix) bool { return m.Rows == o.Rows && m.Cols == o.Cols }

func (m *Matrix) mustSameShape(o *Matrix, op string) {
	if !m.SameShape(o) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, o.Rows, o.Cols))
	}
}

// Add adds o into m elementwise.
func (m *Matrix) Add(o *Matrix) {
	m.mustSameShape(o, "Add")
	for i, v := range o.Data {
		m.Data[i] += v
	}
}

// Sub subtracts o from m elementwise.
func (m *Matrix) Sub(o *Matrix) {
	m.mustSameShape(o, "Sub")
	for i, v := range o.Data {
		m.Data[i] -= v
	}
}

// Scale multiplies every element of m by s.
func (m *Matrix) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AddScaled adds s*o into m elementwise (axpy).
func (m *Matrix) AddScaled(o *Matrix, s float64) {
	m.mustSameShape(o, "AddScaled")
	for i, v := range o.Data {
		m.Data[i] += float64(s * v)
	}
}

// Hadamard multiplies m by o elementwise.
func (m *Matrix) Hadamard(o *Matrix) {
	m.mustSameShape(o, "Hadamard")
	for i, v := range o.Data {
		m.Data[i] *= v
	}
}

// Apply replaces every element x with f(x).
func (m *Matrix) Apply(f func(float64) float64) {
	for i, v := range m.Data {
		m.Data[i] = f(v)
	}
}

// T returns a newly allocated transpose of m.
func (m *Matrix) T() *Matrix {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// parallelThreshold is the amount of multiply-add work below which MatMul
// runs single-threaded; tiny products are common in per-device inference
// and goroutine fan-out would dominate them.
const parallelThreshold = 1 << 16

// MatMul computes dst = a·b. dst must not alias a or b and must be
// pre-shaped to a.Rows×b.Cols. Large shapes run the cache-blocked
// kernel (bit-identical to the reference loop) and are parallelized
// across rows.
func MatMul(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner dim %d != %d", a.Cols, b.Rows))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul dst %dx%d != %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	kernel := matMulRange
	if a.Cols >= blockedMinK && b.Cols >= blockedMinN {
		kernel = matMulBlocked
	}
	// The Workers() == 1 short-circuit skips the fan-out closure so a
	// one-worker pool stays allocation-free (the allocs regression
	// guards pin this).
	if a.Rows*a.Cols*b.Cols < parallelThreshold || Workers() == 1 {
		kernel(dst, a, b, 0, a.Rows)
		return
	}
	parallelRows(a.Rows, func(lo, hi int) { kernel(dst, a, b, lo, hi) })
}

// MatMulRef computes dst = a·b with the straight reference loop,
// sequentially. It is the differential-testing oracle for the blocked
// kernels; production code should call MatMul.
func MatMulRef(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulRef inner dim %d != %d", a.Cols, b.Rows))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulRef dst %dx%d != %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	matMulRange(dst, a, b, 0, a.Rows)
}

// MatMulBias computes dst = a·b with bias (length b.Cols) added to
// every row in the kernel epilogue — one pass over dst instead of a
// matmul followed by AddRowVector, bit-identical to that sequence.
func MatMulBias(dst, a, b *Matrix, bias []float64) {
	matMulBiasDispatch(dst, a, b, bias, false, nil, "MatMulBias")
}

// MatMulBiasReLU computes dst = relu(a·b + bias) in a single pass. When
// mask is non-nil it must have len a.Rows*b.Cols and receives the ReLU
// activation mask (true where the pre-activation was positive), which
// is exactly what a ReLU backward pass needs — the fused forward for a
// dense+ReLU pair that never materializes the pre-activation.
func MatMulBiasReLU(dst, a, b *Matrix, bias []float64, mask []bool) {
	if mask != nil && len(mask) != a.Rows*b.Cols {
		panic(fmt.Sprintf("tensor: MatMulBiasReLU mask len %d != %d", len(mask), a.Rows*b.Cols))
	}
	matMulBiasDispatch(dst, a, b, bias, true, mask, "MatMulBiasReLU")
}

func matMulBiasDispatch(dst, a, b *Matrix, bias []float64, relu bool, mask []bool, op string) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: %s inner dim %d != %d", op, a.Cols, b.Rows))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s dst %dx%d != %dx%d", op, dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	if len(bias) != b.Cols {
		panic(fmt.Sprintf("tensor: %s bias len %d != cols %d", op, len(bias), b.Cols))
	}
	if a.Rows*a.Cols*b.Cols < parallelThreshold || Workers() == 1 {
		matMulBiasRange(dst, a, b, bias, relu, mask, 0, a.Rows)
		return
	}
	parallelRows(a.Rows, func(lo, hi int) { matMulBiasRange(dst, a, b, bias, relu, mask, lo, hi) })
}

// matMulRange computes rows [lo,hi) of dst = a·b using an ikj loop order
// that keeps the inner loop sequential over both b and dst rows.
func matMulRange(dst, a, b *Matrix, lo, hi int) {
	n := b.Cols
	for i := lo; i < hi; i++ {
		di := dst.Data[i*n : (i+1)*n]
		for j := range di {
			di[j] = 0
		}
		ai := a.Row(i)
		for k, av := range ai {
			if av == 0 {
				continue
			}
			bk := b.Data[k*n : (k+1)*n]
			for j, bv := range bk {
				di[j] += float64(av * bv)
			}
		}
	}
}

// MatMulATB computes dst = aᵀ·b without materializing the transpose.
// dst must be a.Cols×b.Cols. Used for weight gradients (xᵀ·dy) — it
// sits on every training/adaptation step, so large shapes run the
// blocked kernel and are parallelized over output rows (each worker
// owns a disjoint band of dst, so the result is independent of the
// pool width).
func MatMulATB(dst, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulATB outer dim %d != %d", a.Rows, b.Rows))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulATB dst %dx%d != %dx%d", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	kernel := matMulATBRange
	if a.Rows >= blockedMinK && b.Cols >= blockedMinN {
		kernel = matMulATBBlocked
	}
	if a.Rows*a.Cols*b.Cols < parallelThreshold || Workers() == 1 {
		kernel(dst, a, b, 0, a.Cols)
		return
	}
	parallelRows(a.Cols, func(lo, hi int) { kernel(dst, a, b, lo, hi) })
}

// matMulATBRange computes dst rows [lo,hi) of dst = aᵀ·b with the
// reference loop (dst row i is column i of a).
func matMulATBRange(dst, a, b *Matrix, lo, hi int) {
	n := b.Cols
	for i := lo; i < hi; i++ {
		di := dst.Data[i*n : i*n+n]
		for j := range di {
			di[j] = 0
		}
	}
	for r := 0; r < a.Rows; r++ {
		ar := a.Row(r)
		br := b.Data[r*n : r*n+n]
		for i := lo; i < hi; i++ {
			av := ar[i]
			if av == 0 {
				continue
			}
			di := dst.Data[i*n : i*n+n]
			for j, bv := range br {
				di[j] += float64(av * bv)
			}
		}
	}
}

// MatMulATBRef computes dst = aᵀ·b with the sequential reference loop
// (the differential-testing oracle for the blocked kernel).
func MatMulATBRef(dst, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulATBRef outer dim %d != %d", a.Rows, b.Rows))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulATBRef dst %dx%d != %dx%d", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	matMulATBRange(dst, a, b, 0, a.Cols)
}

// MatMulABT computes dst = a·bᵀ without materializing the transpose.
// dst must be a.Rows×b.Rows. Used for input gradients (dy·Wᵀ). Large
// shapes run the k-quad kernel over transposed panels of b (see
// matMulABTBlocked), bit-identical to MatMulABTRef.
func MatMulABT(dst, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulABT inner dim %d != %d", a.Cols, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulABT dst %dx%d != %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	kernel := matMulABTRange
	if a.Cols >= blockedMinK && b.Rows >= blockedMinN {
		kernel = matMulABTBlocked
	}
	if a.Rows*a.Cols*b.Rows < parallelThreshold || Workers() == 1 {
		kernel(dst, a, b, 0, a.Rows)
		return
	}
	parallelRows(a.Rows, func(lo, hi int) { kernel(dst, a, b, lo, hi) })
}

// matMulABTRange computes rows [lo,hi) of dst = a·bᵀ with the reference
// dot-product loop.
func matMulABTRange(dst, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		ai := a.Row(i)
		di := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			bj := b.Row(j)
			var s float64
			for k, av := range ai {
				s += float64(av * bj[k])
			}
			di[j] = s
		}
	}
}

// MatMulABTRef computes dst = a·bᵀ with the sequential reference loop
// (the differential-testing oracle for the blocked kernel).
func MatMulABTRef(dst, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulABTRef inner dim %d != %d", a.Cols, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulABTRef dst %dx%d != %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	matMulABTRange(dst, a, b, 0, a.Rows)
}

// maxWorkers caps the fan-out of ParallelFor; 0 means GOMAXPROCS.
var maxWorkers atomic.Int32

// SetMaxWorkers bounds the worker pool used by ParallelFor (and every
// parallel kernel and analysis stage built on it). n <= 0 restores the
// default of runtime.GOMAXPROCS(0). Width 1 forces fully sequential
// execution — the setting the determinism regression tests pin against.
func SetMaxWorkers(n int) {
	if n < 0 {
		n = 0
	}
	maxWorkers.Store(int32(n))
}

// Workers returns the current worker-pool width.
func Workers() int {
	if n := int(maxWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Worker-pool instrumentation: cheap atomic tallies that internal/obs
// gauge functions pull at scrape time. Counting happens per ParallelFor
// call (not per iteration), so the hot loops are untouched.
var (
	poolParallelCalls   atomic.Int64
	poolSequentialCalls atomic.Int64
	poolGoroutines      atomic.Int64
	poolActive          atomic.Int64
)

// PoolStats is a snapshot of worker-pool activity since process start.
type PoolStats struct {
	// ParallelCalls counts ParallelFor invocations that fanned out.
	ParallelCalls int64
	// SequentialCalls counts invocations that ran inline (small n or a
	// one-worker pool).
	SequentialCalls int64
	// Goroutines is the cumulative number of worker goroutines spawned.
	Goroutines int64
	// Active is the number of worker goroutines running right now.
	Active int64
}

// ReadPoolStats returns the current pool counters.
func ReadPoolStats() PoolStats {
	return PoolStats{
		ParallelCalls:   poolParallelCalls.Load(),
		SequentialCalls: poolSequentialCalls.Load(),
		Goroutines:      poolGoroutines.Load(),
		Active:          poolActive.Load(),
	}
}

// ParallelFor splits [0,n) into contiguous chunks, runs f on each chunk
// from its own goroutine (at most Workers() of them) and waits. Results
// must be written to disjoint, pre-indexed destinations so the outcome is
// independent of scheduling — the pattern every parallel stage of the
// cloud analysis path reuses.
func ParallelFor(n int, f func(lo, hi int)) {
	workers := Workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			poolSequentialCalls.Add(1)
			f(0, n)
		}
		return
	}
	poolParallelCalls.Add(1)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		poolGoroutines.Add(1)
		poolActive.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			defer poolActive.Add(-1)
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// ParallelForCtx is ParallelFor with cooperative cancellation: the range
// is split into finer chunks (4× the pool width) and the context is
// checked before each chunk is dispatched, so a cancelled analysis
// abandons the remaining fan-out promptly. In-flight chunks always run to
// completion and results are index-addressed, so for a context that is
// never cancelled the outcome is identical to ParallelFor at any pool
// width. Returns ctx.Err() when cancellation cut the sweep short.
func ParallelForCtx(ctx context.Context, n int, f func(lo, hi int)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	workers := Workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		// Sequential, but still cancellable between fine-grained chunks.
		if n > 0 {
			poolSequentialCalls.Add(1)
			chunk := seqChunk(n)
			for lo := 0; lo < n; lo += chunk {
				if err := ctx.Err(); err != nil {
					return err
				}
				hi := min(lo+chunk, n)
				f(lo, hi)
			}
		}
		return nil
	}
	poolParallelCalls.Add(1)
	chunk := (n + 4*workers - 1) / (4 * workers)
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	var cancelled error
	for lo := 0; lo < n; lo += chunk {
		if err := ctx.Err(); err != nil {
			cancelled = err
			break
		}
		hi := min(lo+chunk, n)
		sem <- struct{}{}
		wg.Add(1)
		poolGoroutines.Add(1)
		poolActive.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			defer poolActive.Add(-1)
			defer func() { <-sem }()
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return cancelled
}

// seqChunk picks a cancellation-check granularity for sequential
// context-aware sweeps: fine enough to notice cancellation, coarse enough
// to keep the per-chunk overhead negligible.
func seqChunk(n int) int {
	chunk := n / 16
	if chunk < 1 {
		chunk = 1
	}
	return chunk
}

// parallelRows splits [0,rows) across the worker pool and waits.
func parallelRows(rows int, f func(lo, hi int)) { ParallelFor(rows, f) }

// AddRowVector adds the length-Cols vector v to every row of m.
func (m *Matrix) AddRowVector(v []float64) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowVector len %d != cols %d", len(v), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, b := range v {
			row[j] += b
		}
	}
}

// ColSums returns the per-column sums of m as a length-Cols slice.
func (m *Matrix) ColSums() []float64 {
	return m.ColSumsInto(make([]float64, m.Cols))
}

// ColSumsInto writes the per-column sums of m into dst (length Cols)
// and returns it — the allocation-free variant for reused scratch.
func (m *Matrix) ColSumsInto(dst []float64) []float64 {
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("tensor: ColSumsInto len %d != cols %d", len(dst), m.Cols))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			dst[j] += v
		}
	}
	return dst
}

// ColMeans returns the per-column means of m.
func (m *Matrix) ColMeans() []float64 {
	return m.ColMeansInto(make([]float64, m.Cols))
}

// ColMeansInto writes the per-column means of m into dst and returns
// it.
func (m *Matrix) ColMeansInto(dst []float64) []float64 {
	m.ColSumsInto(dst)
	if m.Rows == 0 {
		return dst
	}
	inv := 1 / float64(m.Rows)
	for j := range dst {
		dst[j] *= inv
	}
	return dst
}

// ColVariances returns the per-column (biased) variances of m given the
// precomputed column means.
func (m *Matrix) ColVariances(means []float64) []float64 {
	return m.ColVariancesInto(make([]float64, m.Cols), means)
}

// ColVariancesInto writes the per-column (biased) variances of m into
// dst given the precomputed column means, and returns dst.
func (m *Matrix) ColVariancesInto(dst, means []float64) []float64 {
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("tensor: ColVariancesInto len %d != cols %d", len(dst), m.Cols))
	}
	for j := range dst {
		dst[j] = 0
	}
	if m.Rows == 0 {
		return dst
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			d := v - means[j]
			dst[j] += float64(d * d)
		}
	}
	inv := 1 / float64(m.Rows)
	for j := range dst {
		dst[j] *= inv
	}
	return dst
}

// SoftmaxTo writes softmax(v) into dst (same length) and returns dst —
// the allocation-free sibling of Softmax.
func SoftmaxTo(dst, v []float64) []float64 {
	if len(dst) != len(v) {
		panic(fmt.Sprintf("tensor: SoftmaxTo length %d != %d", len(dst), len(v)))
	}
	copy(dst, v)
	SoftmaxInPlace(dst)
	return dst
}

// SoftmaxRows overwrites every row of m with its numerically stable
// softmax.
func (m *Matrix) SoftmaxRows() {
	for i := 0; i < m.Rows; i++ {
		SoftmaxInPlace(m.Row(i))
	}
}

// SoftmaxInPlace overwrites v with softmax(v) using the max-subtraction
// trick for stability.
func SoftmaxInPlace(v []float64) {
	if len(v) == 0 {
		return
	}
	max := v[0]
	for _, x := range v[1:] {
		if x > max {
			max = x
		}
	}
	var sum float64
	for i, x := range v {
		e := math.Exp(x - max)
		v[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range v {
		v[i] *= inv
	}
}

// Softmax returns softmax(v) in a new slice.
func Softmax(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	SoftmaxInPlace(out)
	return out
}

// LogSumExp returns log(Σ exp(v_i)) computed stably.
func LogSumExp(v []float64) float64 {
	if len(v) == 0 {
		return math.Inf(-1)
	}
	max := v[0]
	for _, x := range v[1:] {
		if x > max {
			max = x
		}
	}
	var sum float64
	for _, x := range v {
		sum += math.Exp(x - max)
	}
	return max + math.Log(sum)
}

// ArgMax returns the index of the largest element of v (first on ties)
// and its value. It panics on an empty slice.
func ArgMax(v []float64) (int, float64) {
	if len(v) == 0 {
		panic("tensor: ArgMax of empty slice")
	}
	best, bv := 0, v[0]
	for i, x := range v[1:] {
		if x > bv {
			best, bv = i+1, x
		}
	}
	return best, bv
}

// Max returns the largest element of v.
func Max(v []float64) float64 {
	_, m := ArgMax(v)
	return m
}

// Dot returns the inner product of equal-length a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Dot length %d != %d", len(a), len(b)))
	}
	var s float64
	for i, x := range a {
		s += float64(x * b[i])
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += float64(x * x)
	}
	return math.Sqrt(s)
}

// String renders small matrices for debugging; large ones are summarized.
func (m *Matrix) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
	}
	s := fmt.Sprintf("Matrix(%dx%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}
