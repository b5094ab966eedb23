package fem

import (
	"context"
	"fmt"
	"math"
	"sort"
)

// CSR is a compressed-sparse-row symmetric matrix.
type CSR struct {
	RowPtr []int
	Col    []int32
	Val    []float64
	n      int
}

// NNZ returns the stored nonzero count.
func (m *CSR) NNZ() int { return len(m.Val) }

// MulVec computes y = A x.
func (m *CSR) MulVec(x, y []float64) {
	for i := 0; i < m.n; i++ {
		var s float64
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += m.Val[k] * x[m.Col[k]]
		}
		y[i] = s
	}
}

// Diag extracts the diagonal.
func (m *CSR) Diag() []float64 {
	d := make([]float64, m.n)
	for i := 0; i < m.n; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if int(m.Col[k]) == i {
				d[i] = m.Val[k]
			}
		}
	}
	return d
}

// cgCheckEvery is how many CG iterations run between context checks
// and progress reports: cheap enough to be negligible against the two
// SpMVs per iteration, frequent enough that cancellation lands within
// milliseconds on any realistic system.
const cgCheckEvery = 16

// cgJacobi runs Jacobi-preconditioned conjugate gradients on A x = b,
// overwriting x. Returns iterations and the final relative residual.
// ctx is checked every cgCheckEvery iterations — a canceled solve
// returns ctx's error (wrapped, so errors.Is sees context.Canceled /
// DeadlineExceeded) with x holding the best iterate so far. progress,
// when non-nil, is called on the same cadence with the iteration count
// and current relative residual.
func (m *CSR) cgJacobi(ctx context.Context, x, b []float64, tol float64, maxIter int, progress func(iter int, rel float64)) (int, float64, error) {
	n := m.n
	d := m.Diag()
	for i, v := range d {
		if v <= 0 {
			return 0, 0, fmt.Errorf("fem: non-positive diagonal at %d (%g): matrix not SPD", i, v)
		}
		d[i] = 1 / v
	}

	r := make([]float64, n)
	z := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)

	m.MulVec(x, r)
	var bnorm float64
	for i := range r {
		r[i] = b[i] - r[i]
		bnorm += b[i] * b[i]
	}
	bnorm = math.Sqrt(bnorm)
	if bnorm == 0 {
		for i := range x {
			x[i] = 0
		}
		return 0, 0, nil
	}

	var rz float64
	for i := range r {
		z[i] = d[i] * r[i]
		p[i] = z[i]
		rz += r[i] * z[i]
	}

	for it := 1; it <= maxIter; it++ {
		if it%cgCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				var rnorm float64
				for i := range r {
					rnorm += r[i] * r[i]
				}
				return it, math.Sqrt(rnorm) / bnorm, fmt.Errorf("fem: solve interrupted after %d iterations: %w", it, err)
			}
			if progress != nil {
				var rnorm float64
				for i := range r {
					rnorm += r[i] * r[i]
				}
				progress(it, math.Sqrt(rnorm)/bnorm)
			}
		}
		m.MulVec(p, ap)
		var pap float64
		for i := range p {
			pap += p[i] * ap[i]
		}
		if pap <= 0 {
			return it, math.Inf(1), fmt.Errorf("fem: CG breakdown (p^T A p = %g)", pap)
		}
		alpha := rz / pap
		var rnorm float64
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
			rnorm += r[i] * r[i]
		}
		rnorm = math.Sqrt(rnorm)
		if rnorm <= tol*bnorm {
			return it, rnorm / bnorm, nil
		}
		var rzNew float64
		for i := range r {
			z[i] = d[i] * r[i]
			rzNew += r[i] * z[i]
		}
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	var rnorm float64
	for i := range r {
		rnorm += r[i] * r[i]
	}
	return maxIter, math.Sqrt(rnorm) / bnorm, fmt.Errorf("fem: CG did not converge in %d iterations", maxIter)
}

// csrBuilder accumulates triplets and compresses duplicates.
type csrBuilder struct {
	n    int
	rows [][]entry
}

type entry struct {
	col int32
	val float64
}

func newCSRBuilder(n int) *csrBuilder {
	return &csrBuilder{n: n, rows: make([][]entry, n)}
}

func (b *csrBuilder) add(i, j int, v float64) {
	b.rows[i] = append(b.rows[i], entry{col: int32(j), val: v})
}

func (b *csrBuilder) build() *CSR {
	m := &CSR{n: b.n, RowPtr: make([]int, b.n+1)}
	for i, row := range b.rows {
		sort.Slice(row, func(a, c int) bool { return row[a].col < row[c].col })
		for k := 0; k < len(row); {
			j := row[k].col
			var s float64
			for ; k < len(row) && row[k].col == j; k++ {
				s += row[k].val
			}
			m.Col = append(m.Col, j)
			m.Val = append(m.Val, s)
		}
		m.RowPtr[i+1] = len(m.Col)
	}
	return m
}
