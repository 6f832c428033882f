package simq

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"mqsspulse/internal/linalg"
)

// BenchmarkDensityTick times the per-tick costs of the density engine at
// the sc-2 shape (two d = 3 transmons, T1/T2 on both): the conjugation by a
// cached propagator alone, the dissipator step alone, a tick of a constant
// stretch (the two together) and a tick of a varying envelope (Hamiltonian
// load, Taylor propagator build, conjugation, dissipator).
func BenchmarkDensityTick(b *testing.B) {
	ex := twoTransmonOpenRig(b)
	cs := ex.Model.collapse
	eng := ex.newFastEngine(true, 1e-9)
	rho := randomDensity(rand.New(rand.NewSource(3)), ex.Model.Dims)
	active := []playEvent{{ch: ex.Model.Channels["d0"]}, {ch: ex.Model.Channels["d1"]}}
	chis := []complex128{complex(0.3, 0.1), complex(-0.2, 0.4)}
	u, err := ex.propagator(eng, active, chis, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		tick func()
	}{
		{"conjugate", func() { eng.mat.conjugateWith(u, rho.Rho) }},
		{"dissipate", func() { eng.mat.dissipate(cs, rho.Rho, eng.dt) }},
		{"constant-stretch-tick", func() {
			eng.mat.conjugateWith(u, rho.Rho)
			eng.dissipate(cs, rho, eng.dt)
		}},
		{"varying-tick", func() {
			eng.loadHam(active, chis)
			eng.mat.conjugate(eng.ham, rho.Rho, eng.dt)
			eng.dissipate(cs, rho, eng.dt)
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			bc.tick() // grows ham.ops to its steady-state capacity
			for b.Loop() {
				bc.tick()
			}
		})
	}
}

// generatorNNZBound returns Σ nnz(L_k)² + 2n·nnz(D) over the channels with
// a non-zero rate, their count K, and whether every such L_k has at most
// one non-zero per row (then (K+1)·n² bounds nnz(G) as well).
func generatorNNZBound(n int, cs []Collapse) (bound, k int, onePerRow bool) {
	onePerRow = true
	decay := linalg.NewMatrix(n, n)
	for _, c := range cs {
		if c.Rate == 0 {
			continue
		}
		k++
		l := linalg.NewSparse(c.L)
		bound += l.NNZ() * l.NNZ()
		for a := 1; a < l.NNZ(); a++ {
			if l.RowIdx[a] == l.RowIdx[a-1] {
				onePerRow = false
			}
		}
		decay.AddInPlace(c.L.Dagger().Mul(c.L), complex(c.Rate, 0))
	}
	return bound + 2*n*linalg.NewSparse(decay).NNZ(), k, onePerRow
}

// TestGeneratorMatchesDenseReference pins the vec(ρ) generator beyond the
// T1/T2 channels TestDissipatorMatchesDenseReference draws: a complex
// (phase-rotated) jump operator, a correlated two-site one and a zero-rate
// channel, applied to arbitrary matrices as well as physical states.
func TestGeneratorMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, dims := range [][]int{{2}, {3, 3}, {2, 3, 2}} {
		var cs []Collapse
		for site := range dims {
			cs = append(cs, RelaxationCollapses(dims, site, 30e-6, 20e-6)...)
		}
		last := len(dims) - 1
		cs = append(cs,
			Collapse{L: linalg.EmbedAt(linalg.Annihilation(dims[0]), dims, 0).Scale(cmplx.Exp(0.7i)), Rate: 4e4},
			Collapse{L: linalg.EmbedAt(linalg.NumberOp(dims[last]), dims, last), Rate: 0})
		if len(dims) > 1 {
			aa := linalg.Annihilation(dims[0]).Kron(linalg.Annihilation(dims[1]))
			cs = append(cs, Collapse{L: linalg.EmbedTwo(aa, dims, 0), Rate: 2e4})
		}
		var rateSum float64
		for _, c := range cs {
			rateSum += c.Rate
		}
		model, err := NewSystemModel(dims, nil, nil, cs)
		if err != nil {
			t.Fatal(err)
		}
		g := model.collapse
		n := model.HilbertDim()
		s := newMatStepper(n)
		noH := linalg.NewMatrix(n, n)

		bound, k, onePerRow := generatorNNZBound(n, cs)
		if !onePerRow {
			t.Fatalf("dims %v: the drawn jump operators should have one non-zero per row", dims)
		}
		if nnz := len(g.vals); nnz > bound || nnz > (k+1)*n*n {
			t.Fatalf("dims %v: nnz(G) = %d, want ≤ %d and ≤ (K+1)·n² = %d", dims, nnz, bound, (k+1)*n*n)
		}

		// Trace annihilation: tr(dρ/dt) = 0 for every ρ, so each column of G
		// sums to zero over the rows of the diagonal entries ρ_ii.
		colSum := make([]complex128, n*n)
		for i := 0; i < n; i++ {
			r := i*n + i
			for a := g.rowStart[r]; a < g.rowStart[r+1]; a++ {
				colSum[g.cols[a]] += g.vals[a]
			}
		}
		for c, v := range colSum {
			if cmplx.Abs(v) > 1e-15*rateSum {
				t.Fatalf("dims %v: column %d of G sums to %g over the diagonal rows", dims, c, v)
			}
		}

		for trial := 0; trial < 4; trial++ {
			x := randomDensity(rng, dims).Rho
			if trial > 0 { // arbitrary, non-Hermitian
				for i := range x.Data {
					x.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
				}
			}
			gx, gxd := linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)
			s.dissipatorRHS(g, gx, x)
			if ref := LindbladRHS(noH, x, cs); !gx.Equal(ref, 1e-12*rateSum) {
				t.Fatalf("dims %v trial %d: G·vec(X) off by %g (rates sum to %g)", dims, trial, gx.Sub(ref).MaxAbs(), rateSum)
			}
			s.dissipatorRHS(g, gxd, x.Dagger())
			if !gxd.Equal(gx.Dagger(), 1e-12*rateSum) {
				t.Fatalf("dims %v trial %d: G·vec(X†) ≠ (G·vec(X))†, off by %g", dims, trial, gxd.Sub(gx.Dagger()).MaxAbs())
			}
		}

		got := randomDensity(rng, dims)
		want := got.Clone()
		for step := 0; step < 200; step++ {
			s.dissipate(g, got.Rho, 50e-9)
			LindbladStepRK4(noH, want, cs, 50e-9)
		}
		if !got.Rho.Equal(want.Rho, 1e-12) {
			t.Fatalf("dims %v: ρ off by %g after 200 steps", dims, got.Rho.Sub(want.Rho).MaxAbs())
		}
		if tr := got.Trace(); math.Abs(tr-1) > 1e-12 {
			t.Fatalf("dims %v: trace %.15g", dims, tr)
		}
	}
}

// TestGeneratorWorkContract asserts the per-step work the dissipator does
// at the shapes the devices build: one multiply-add per stored entry of G
// per RK4 stage.
func TestGeneratorWorkContract(t *testing.T) {
	dims := []int{2}
	model, err := NewSystemModel(dims, nil, nil, RelaxationCollapses(dims, 0, 30e-6, 20e-6))
	if err != nil {
		t.Fatal(err)
	}
	if nnz := len(model.collapse.vals); nnz != 4 {
		t.Fatalf("one d = 2 site with T1+T2: nnz(G) = %d, want 4", nnz)
	}
	if nnz := len(twoTransmonOpenRig(t).Model.collapse.vals); nnz > 152 {
		t.Fatalf("two d = 3 transmons with T1+T2: nnz(G) = %d, want ≤ 152", nnz)
	}
}
