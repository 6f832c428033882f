package simq

import (
	"maps"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"mqsspulse/internal/linalg"
	"mqsspulse/internal/pulse"
)

// BenchmarkDensityTick times the per-tick costs of the density engine at
// the sc-2 shape (two d = 3 transmons, T1/T2 on both): the conjugation by a
// cached propagator alone, the dissipator step alone, a tick of a constant
// stretch (the two together), a tick of a varying envelope (Hamiltonian
// load, Taylor propagator build, conjugation, dissipator), a
// propagator-cache miss (the key, the Taylor build of a one-tick stretch
// and its cache entry), a step-memo miss (the key, the build of the
// dissipator's step map and its memo entry), the apply of a 256-tick
// constant stretch's map (one whole stretch) and its build on a miss (the
// key, 81 ticks on the basis, eight squarings and the memo entry; its
// memo fills, so it also times evictions). varying-tick-d2 is a tick of
// a varying envelope at the tiny-1 shape (one d = 2 site), whose
// propagator is the closed form; fresh-stretch-d2 is a two-tick constant
// stretch there at a χ never played before, what a Rabi sweep point pays
// for its Gaussian's equal middle pair. varying-tick times the dense propagator
// whatever the tick drives; separable-tick is the same tick (both drives,
// no coupler) as a run steps it, site by site. Every sub-benchmark flushes ρ's subnormal
// parts at the cadence a run does, so a reading does not depend on b.N.
func BenchmarkDensityTick(b *testing.B) {
	r := newTickRig(twoTransmonOpenRig(b))
	ex, eng, rho := r.ex, r.eng, r.rho
	u := ex.propagator(eng, r.active, r.chis, 1)
	d2 := newTickRig(oneQubitOpenRig(b))
	missChis, missH, mapChis, d2Chi := slices.Clone(r.chis), eng.dt, slices.Clone(r.chis), d2.chis[0]
	const mapRun = 256
	m := ex.stretchMap(eng, r.active, r.chis, r.step, mapRun, nil)
	for _, bc := range []struct {
		name string
		rho  *Density
		tick func()
	}{
		{"conjugate", rho, func() { eng.mat.conjugateWith(u, rho.Rho) }},
		{"dissipate", rho, func() { eng.mat.dissipate(r.step, rho.Rho) }},
		{"constant-stretch-tick", rho, func() {
			eng.mat.conjugateWith(u, rho.Rho)
			eng.dissipate(r.step, rho)
		}},
		{"varying-tick", rho, r.varyingTick},
		{"varying-tick-d2", d2.rho, d2.varyingTick},
		{"fresh-stretch-d2", d2.rho, func() {
			d2Chi += 1e-6 // a χ no run has played
			d2.stretch(d2Chi, 2)
		}},
		{"separable-tick", rho, r.separableTick},
		{"stretch-miss", rho, func() {
			missChis[0] += 1e-6 // a χ no look-up has seen
			ex.propagator(eng, r.active, missChis, 1)
		}},
		{"dissipator-build", rho, func() {
			missH *= 1 + 1e-9 // a step size no look-up has seen
			ex.dissipatorStep(eng, missH)
		}},
		{"stretch-map-apply", rho, func() { eng.mat.applyMap(m, rho.Rho) }},
		{"stretch-map-build", rho, func() {
			mapChis[0] += 1e-6 // a χ no look-up has seen
			ex.stretchMap(eng, r.active, mapChis, r.step, mapRun, nil)
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			bc.tick() // grows ham.ops to its steady-state capacity
			for i := 1; b.Loop(); i++ {
				bc.tick()
				if i%interruptPollTicks == 0 {
					flushSubnormals(bc.rho.Rho)
				}
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

// channelMix returns the generator tests' channels on dims: T1+T2 on every
// site, a complex (phase-rotated) jump operator, a zero-rate channel and,
// on two sites or more, a correlated two-site one.
func channelMix(dims []int) []Collapse {
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
	return cs
}

// TestGeneratorMatchesDenseReference pins the vec(ρ) generator beyond the
// T1/T2 channels TestDissipatorMatchesDenseReference draws (channelMix),
// applied to arbitrary matrices as well as physical states.
func TestGeneratorMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, dims := range [][]int{{2}, {3, 3}, {2, 3, 2}} {
		cs := channelMix(dims)
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
			if !(cmplx.Abs(v) <= 1e-15*rateSum) {
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
			if ref := LindbladRHS(noH, x, cs); !(gx.Sub(ref).MaxAbs() <= 1e-12*rateSum) {
				t.Fatalf("dims %v trial %d: G·vec(X) off by %g (rates sum to %g)", dims, trial, gx.Sub(ref).MaxAbs(), rateSum)
			}
			s.dissipatorRHS(g, gxd, x.Dagger())
			if !(gxd.Sub(gx.Dagger()).MaxAbs() <= 1e-12*rateSum) {
				t.Fatalf("dims %v trial %d: G·vec(X†) ≠ (G·vec(X))†, off by %g", dims, trial, gxd.Sub(gx.Dagger()).MaxAbs())
			}
		}

		got := randomDensity(rng, dims)
		want := got.Clone()
		m := g.stepMap(50e-9)
		for step := 0; step < 200; step++ {
			s.dissipate(m, got.Rho)
			LindbladStepRK4(noH, want, cs, 50e-9)
		}
		if !(got.Rho.Sub(want.Rho).MaxAbs() <= 1e-12) {
			t.Fatalf("dims %v: ρ off by %g after 200 steps", dims, got.Rho.Sub(want.Rho).MaxAbs())
		}
		if tr := got.Trace(); !(math.Abs(tr-1) <= 1e-12) {
			t.Fatalf("dims %v: trace %.15g", dims, tr)
		}
	}
}

// TestDissipatorStepIsRK4: one production dissipator step — the
// executor's memoized step map, applied once — is the four-stage RK4 step
// of the dense reference, at a tick and at an idle segment's sub-step, on
// the channel mix; and a Hermitian ρ comes back exactly Hermitian.
func TestDissipatorStepIsRK4(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	const dt = 1e-9
	idleT := 1300 * dt // three sub-steps of 433 ns
	idle := idleT / math.Ceil(idleT/maxIdleStep)
	for _, dims := range [][]int{{2}, {3, 3}, {2, 3, 2}} {
		cs := channelMix(dims)
		model, err := NewSystemModel(dims, nil, nil, cs)
		if err != nil {
			t.Fatal(err)
		}
		ex := NewExecutor(model)
		eng := ex.newFastEngine(true, dt)
		noH := linalg.NewMatrix(model.HilbertDim(), model.HilbertDim())
		for _, h := range []float64{dt, idle} {
			got := randomDensity(rng, dims)
			want := got.Clone()
			eng.mat.dissipate(ex.dissipatorStep(eng, h), got.Rho)
			LindbladStepRK4(noH, want, cs, h)
			if d, norm := got.Rho.Sub(want.Rho).MaxAbs(), want.Rho.MaxAbs(); !(d <= 1e-13*norm) {
				t.Fatalf("dims %v h %g: one step off the RK4 reference by %g (‖ρ‖ %g)", dims, h, d, norm)
			}
			if defects, _ := hermitianDefects(got.Rho); defects != 0 {
				t.Fatalf("dims %v h %g: %d entries break exact Hermiticity", dims, h, defects)
			}
		}
	}
}

// upperRowNNZ counts G's entries in the rows i·n + j with i ≤ j: what one
// RK4 stage applied.
func upperRowNNZ(cs *collapseSet) int {
	n, nnz := cs.n, 0
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			nnz += cs.rowStart[i*n+j+1] - cs.rowStart[i*n+j]
		}
	}
	return nnz
}

// TestGeneratorWorkContract asserts the per-step work the dissipator does
// at the shapes the devices build: one multiply-add per stored entry of
// the step map M, which is fewer than the four RK4 stages' applications
// of G's upper rows.
func TestGeneratorWorkContract(t *testing.T) {
	dims := []int{2}
	model, err := NewSystemModel(dims, nil, nil, RelaxationCollapses(dims, 0, 30e-6, 20e-6))
	if err != nil {
		t.Fatal(err)
	}
	if nnz := len(model.collapse.vals); nnz != 4 {
		t.Fatalf("one d = 2 site with T1+T2: nnz(G) = %d, want 4", nnz)
	}
	if nnz := len(model.collapse.stepMap(1e-9).vals); nnz != 4 {
		t.Fatalf("one d = 2 site with T1+T2: nnz(M) = %d, want 4", nnz)
	}
	rig := twoTransmonOpenRig(t).Model.collapse
	if nnz := len(rig.vals); nnz > 152 {
		t.Fatalf("two d = 3 transmons with T1+T2: nnz(G) = %d, want ≤ 152", nnz)
	}
	if nnz := len(rig.stepMap(1e-9).vals); nnz != 116 {
		t.Fatalf("two d = 3 transmons with T1+T2: nnz(M) = %d, want 116", nnz)
	}
	for _, dims := range [][]int{{2}, {2, 2, 2, 2}, {3, 3, 3}, {4, 4}, {3, 3}} {
		var cs []Collapse
		for site := range dims {
			cs = append(cs, RelaxationCollapses(dims, site, 30e-6, 20e-6)...)
		}
		model, err := NewSystemModel(dims, nil, nil, cs)
		if err != nil {
			t.Fatal(err)
		}
		g := model.collapse
		if m, stages := len(g.stepMap(1e-9).vals), 4*upperRowNNZ(g); m > stages {
			t.Fatalf("dims %v: nnz(M) = %d, more than the %d entries four RK4 stages apply", dims, m, stages)
		}
	}
}

// TestDissipatorStepMemoWarmRun: an executor builds a step map once per
// step size — a tick's and an idle segment's sub-step — and a second run
// of the program finds both in the memo, builds none and returns the
// same bits.
func TestDissipatorStepMemoWarmRun(t *testing.T) {
	ex := twoTransmonOpenRig(t)
	sp := twoPortProgram(t, func(s *pulse.Schedule) {
		playGaussian(t, s, "d0", "f0", 0.5, 48)
		if err := s.Append(&pulse.Delay{Port: "d0", Samples: 1300}); err != nil {
			t.Fatal(err)
		}
		playConst(t, s, "d0", "f0", 0.5, 40)
	})
	p, err := ex.Prepare(sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := func() map[string]*stepMap {
		ex.steps.mu.RLock()
		defer ex.steps.mu.RUnlock()
		return maps.Clone(ex.steps.m)
	}
	cold, err := runEvolved(p, ExecOptions{Shots: 1})
	if err != nil {
		t.Fatal(err)
	}
	built := snapshot()
	if len(built) != 2 {
		t.Fatalf("cold run built %d step maps, want 2 (the tick and the idle sub-step)", len(built))
	}
	warm, err := runEvolved(p, ExecOptions{Shots: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(snapshot(), built) {
		t.Fatal("the warm run built a step map")
	}
	if warm.DissipatorSteps != cold.DissipatorSteps {
		t.Fatalf("warm run took %d dissipator steps, the cold one %d", warm.DissipatorSteps, cold.DissipatorSteps)
	}
	sameRun(t, "warm vs cold", warm, cold)
}

// TestDissipatorStepMemoRace: eight runs racing an executor's first use
// of a step size store one step map between them and return bit-identical
// results.
func TestDissipatorStepMemoRace(t *testing.T) {
	ex := twoTransmonOpenRig(t)
	sp := twoPortProgram(t, func(s *pulse.Schedule) {
		playGaussian(t, s, "d0", "f0", 0.5, 48)
		playGaussian(t, s, "d1", "f1", 0.4, 48)
	})
	p, err := ex.Prepare(sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 8
	results := make([]*evolved, runs)
	errs := make([]error, runs)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			results[g], errs[g] = runEvolved(p, ExecOptions{Shots: 1})
		}()
	}
	close(start)
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", g, err)
		}
	}
	if n := ex.steps.size(); n != 1 {
		t.Fatalf("the memo holds %d step maps, want 1", n)
	}
	for g := 1; g < runs; g++ {
		sameRun(t, "racing runs", results[g], results[0])
	}
}

// TestStretchMapMemoRace: eight runs racing an executor's first use of a
// square pulse that takes a stretch map store one map between them and
// return bit-identical results.
func TestStretchMapMemoRace(t *testing.T) {
	ex := twoTransmonOpenRig(t)
	sp := resonantProgram(t, func(s *pulse.Schedule) {
		playConst(t, s, "d0", "f0", 0.5, 256)
		playConst(t, s, "d1", "f1", 0.4, 256)
	})
	p, err := ex.Prepare(sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 8
	results := make([]*evolved, runs)
	errs := make([]error, runs)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			results[g], errs[g] = runEvolved(p, ExecOptions{Shots: 1})
		}()
	}
	close(start)
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", g, err)
		}
	}
	if n := ex.maps.size(); n != 1 {
		t.Fatalf("the memo holds %d stretch maps, want 1", n)
	}
	for g := 1; g < runs; g++ {
		sameRun(t, "racing runs", results[g], results[0])
	}
}
