package simq

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mqsspulse/internal/linalg"
	"mqsspulse/internal/pulse"
	"mqsspulse/internal/waveform"
)

// TestSiteLocality: which models split into site terms and which channels
// are local to one site. Every transmon drive is local at its site; ZZ and
// exchange couplers and a literal operator whose blocks differ in one entry
// are not; a drift with an off-diagonal term, or a diagonal one that is not
// a sum of site terms, leaves the model unsplit; the sc-3 device's drift
// (three d = 3 transmons at −220 MHz) and a chain of mixed level counts
// with detunings split.
func TestSiteLocality(t *testing.T) {
	chain := func(dims []int) *linalg.Matrix {
		drift := linalg.NewMatrix(1, 1)
		for i := range dims {
			td := TransmonDrift(dims, i, 3e6*float64(i), -220e6)
			if i == 0 {
				drift = td
			} else {
				drift = drift.Add(td)
			}
		}
		return drift
	}
	sc3, mixed := []int{3, 3, 3}, []int{2, 3, 2}
	tweaked := linalg.EmbedAt(linalg.Creation(3), mixed, 1)
	// a†'s entry ⟨1|a†|0⟩ of site 1 with site 0 at level 1, one ulp off.
	tweaked.Set(8, 6, complex(math.Nextafter(1, 2), 0))
	offDiag := chain(sc3)
	offDiag.Set(1, 3, 1e6)
	offDiag.Set(3, 1, 1e6)
	zzDrift := chain(sc3).Add(linalg.EmbedTwo(zProj(3).Kron(zProj(3)), sc3, 0).Scale(2e6))
	for _, c := range []struct {
		name      string
		dims      []int
		drift     *linalg.Matrix
		channels  []*ControlChannel
		separable bool
		local     map[string]int // port → site of every local channel
	}{
		{"sc-3", sc3, chain(sc3), []*ControlChannel{
			TransmonDriveChannel("q0", sc3, 0, 40e6, 4.9e9), TransmonDriveChannel("q1", sc3, 1, 40e6, 5.05e9),
			TransmonDriveChannel("q2", sc3, 2, 40e6, 5.2e9), TransmonDriveChannel("r2", sc3, 2, 5e6, 5.2e9),
			ZZCouplerChannel("zz01", sc3, 0, 25e6), ZZCouplerChannel("zz12", sc3, 1, 25e6),
			ExchangeCouplerChannel("xy01", sc3, 0, 10e6),
		}, true, map[string]int{"q0": 0, "q1": 1, "q2": 2, "r2": 2}},
		{"mixed-levels", mixed, chain(mixed), []*ControlChannel{
			TransmonDriveChannel("q0", mixed, 0, 40e6, 5e9), TransmonDriveChannel("q1", mixed, 1, 40e6, 5.1e9),
			TransmonDriveChannel("q2", mixed, 2, 40e6, 5.2e9), ExchangeCouplerChannel("xy12", mixed, 1, 10e6),
			{PortID: "literal", OpRaise: tweaked, RabiHz: 1e6},
			{PortID: "embedded", OpRaise: linalg.EmbedAt(linalg.PauliX(), mixed, 2), RabiHz: 1e6},
		}, true, map[string]int{"q0": 0, "q1": 1, "q2": 2, "embedded": 2}},
		{"off-diagonal-drift", sc3, offDiag, []*ControlChannel{TransmonDriveChannel("q0", sc3, 0, 40e6, 4.9e9)}, false, nil},
		{"static-zz-drift", sc3, zzDrift, []*ControlChannel{TransmonDriveChannel("q0", sc3, 0, 40e6, 4.9e9)}, false, nil},
		{"zero-drift", mixed, nil, []*ControlChannel{TransmonDriveChannel("q1", mixed, 1, 40e6, 5e9)}, true, map[string]int{"q1": 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, err := NewSystemModel(c.dims, c.drift, c.channels, RelaxationCollapses(c.dims, 0, 30e-6, 20e-6))
			if err != nil {
				t.Fatal(err)
			}
			sites, locals := siteTerms(m)
			if (sites != nil) != c.separable {
				t.Fatalf("separable %v, want %v", sites != nil, c.separable)
			}
			got := map[string]int{}
			for ch, lc := range locals {
				got[ch.PortID] = lc.site
				want := linalg.NewMatrix(c.dims[lc.site], c.dims[lc.site])
				lc.op.AddToDense(want, 1)
				if d := linalg.EmbedAt(want, c.dims, lc.site).Sub(ch.OpRaise).MaxAbs(); d != 0 {
					t.Errorf("%s: embedded local operator off OpRaise by %g", ch.PortID, d)
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(c.local) {
				t.Errorf("local channels %v, want %v", got, c.local)
			}
			// The shifted site drifts sum to the drift up to one constant.
			for idx := 0; sites != nil && idx < m.HilbertDim(); idx++ {
				var sum float64
				for _, st := range sites {
					sum += st.diag[idx/st.stride%st.dim]
				}
				want := real(m.Drift.At(idx, idx)) - real(m.Drift.At(0, 0))
				for _, st := range sites {
					want += st.diag[0]
				}
				if d := sum - want; !(d <= 1e-3 && d >= -1e-3) {
					t.Fatalf("basis state %d: site drifts sum to %g, want %g", idx, sum, want)
				}
			}
		})
	}
}

// randomUnitary returns exp(−iH) for a random Hermitian H of side n.
func randomUnitary(t *testing.T, rng *rand.Rand, n int) *linalg.Matrix {
	u, err := linalg.ExpI(randHermitianM(rng, n, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// TestConjugateSiteMatchesDense pins the two leg kernels against the dense
// conjugation by the embedded factor: on every site of a {2, 3, 2} chain,
// conjugateSite by a random d×d unitary and conjugatePhases by random
// phases equal L·ρ·L† within 1e-14 and leave ρ exactly Hermitian.
func TestConjugateSiteMatchesDense(t *testing.T) {
	dims := []int{2, 3, 2}
	rng := rand.New(rand.NewSource(55))
	s := newMatStepper(12)
	for site, stride := range []int{6, 2, 1} {
		d := dims[site]
		u := randomUnitary(t, rng, d)
		phases := make([]complex128, d)
		diag := linalg.NewMatrix(d, d)
		for k := range phases {
			phases[k] = randomUnitary(t, rng, 1).Data[0]
			diag.Set(k, k, phases[k])
		}
		for _, c := range []struct {
			name   string
			factor *linalg.Matrix
			apply  func(rho *linalg.Matrix)
		}{
			{"factor", u, func(rho *linalg.Matrix) { s.conjugateSite(u, stride, rho) }},
			{"phases", diag, func(rho *linalg.Matrix) { s.conjugatePhases(phases, stride, rho) }},
		} {
			rho := randomDensity(rng, dims).Rho
			l := linalg.EmbedAt(c.factor, dims, site)
			want := l.Mul(rho).Mul(l.Dagger())
			c.apply(rho)
			if d := rho.Sub(want).MaxAbs(); !(d <= 1e-14) {
				t.Errorf("site %d, %s: ρ off L·ρ·L† by %g", site, c.name, d)
			}
			if defects, _ := hermitianDefects(rho); defects != 0 {
				t.Errorf("site %d, %s: %d entries break exact Hermiticity", site, c.name, defects)
			}
		}
	}
}

// siteChainRig is an open transmon chain of the given level counts —
// site i detuned by 3·i MHz and anharmonic by −220 MHz, driven on port di
// at 5.0 + 0.1·i GHz, T1 = 30 µs and T2 = 20 µs — with a ZZ coupler c01 on
// sites 0 and 1 and, on three sites, an exchange coupler c12 on sites 1
// and 2, and a schedule with a port and frame for each channel.
func siteChainRig(t *testing.T, dims []int) (*pulse.Schedule, *Executor, []string) {
	t.Helper()
	drift := TransmonDrift(dims, 0, 0, -220e6)
	chans := []*ControlChannel{ZZCouplerChannel("c01", dims, 0, 25e6)}
	if len(dims) > 2 {
		chans = append(chans, ExchangeCouplerChannel("c12", dims, 1, 15e6))
	}
	var cs []Collapse
	for i := range dims {
		if i > 0 {
			drift = drift.Add(TransmonDrift(dims, i, 3e6*float64(i), -220e6))
		}
		chans = append(chans, TransmonDriveChannel(fmt.Sprintf("d%d", i), dims, i, 40e6, 5.0e9+0.1e9*float64(i)))
		cs = append(cs, RelaxationCollapses(dims, i, 30e-6, 20e-6)...)
	}
	model, err := NewSystemModel(dims, drift, chans, cs)
	if err != nil {
		t.Fatal(err)
	}
	s := pulse.NewSchedule()
	var ports []string
	for _, ch := range chans {
		sites, kind := []int{int(ch.PortID[1] - '0')}, pulse.PortDrive
		if ch.PortID[0] == 'c' {
			sites, kind = []int{sites[0], sites[0] + 1}, pulse.PortCoupler
		}
		if err := s.AddPort(&pulse.Port{ID: ch.PortID, Kind: kind, Sites: sites, SampleRateHz: 1e9, MaxAmplitude: 1}); err != nil {
			t.Fatal(err)
		}
		if err := s.AddFrame(pulse.NewFrame("f"+ch.PortID, ch.CarrierFreqHz)); err != nil {
			t.Fatal(err)
		}
		ports = append(ports, ch.PortID)
	}
	return s, NewExecutor(model), ports
}

// TestSiteTicksMatchExact is the site-by-site tick's property test: random
// programs on chains {3, 3}, {2, 3} and {2, 3, 2} — Gaussian plays,
// delays, phase and frequency shifts on every drive, and plays on
// the couplers now and then, so that separable ticks (drives alone) and
// coupled ones (a coupler sounding) interleave — end with the ρ of the
// exact reference within 1e-10, exactly Hermitian and physical. It also
// checks that the programs hold ticks of both kinds.
func TestSiteTicksMatchExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5501))
	var separable, coupled int64
	for trial := 0; trial < 9; trial++ {
		dims := [][]int{{3, 3}, {2, 3}, {2, 3, 2}}[trial%3]
		s, ex, ports := siteChainRig(t, dims)
		if ex.sites == nil {
			t.Fatal("the chain's drift does not split into site terms")
		}
		for _, port := range ports {
			frame := "f" + port
			for range 1 + rng.Intn(4) {
				var err error
				switch op := rng.Intn(6); {
				case port[0] == 'c' && op > 1:
					err = s.Append(&pulse.Delay{Port: port, Samples: int64(8 + rng.Intn(40))})
				case op <= 2:
					var w *waveform.Waveform
					if w, err = (waveform.Gaussian{Amplitude: 0.2 + 0.7*rng.Float64(), SigmaFrac: 0.2}).Materialize("g", 8+rng.Intn(40)); err == nil {
						err = s.Append(&pulse.Play{Port: port, Frame: frame, Waveform: w})
					}
				case op == 3:
					err = s.Append(&pulse.Delay{Port: port, Samples: int64(1 + rng.Intn(30))})
				case op == 4:
					err = s.Append(&pulse.FrameUpdate{Port: port, Frame: frame, Kind: pulse.ShiftPhase, Phase: 6 * rng.Float64()})
				default:
					err = s.Append(&pulse.FrameUpdate{Port: port, Frame: frame, Kind: pulse.ShiftFrequency, Hz: 20e6 * (rng.Float64() - 0.5)})
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		sp, err := s.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		p, err := ex.Prepare(sp, nil)
		if err != nil {
			t.Fatal(err)
		}
		ticks := p.Ticks()
		separable += ticks[kindSiteTick]
		coupled += ticks[kindDenseTick]
		fast, err := runEvolved(p, ExecOptions{Shots: 1})
		if err != nil {
			t.Fatal(err)
		}
		exact, err := runExact(p)
		if err != nil {
			t.Fatal(err)
		}
		rho := fast.FinalDensity
		if d := rho.Rho.Sub(exact.FinalDensity.Rho).MaxAbs(); !(d <= 1e-10) {
			t.Errorf("trial %d (dims %v): ρ off the exact reference by %g", trial, dims, d)
		}
		if defects, _ := hermitianDefects(rho.Rho); defects != 0 {
			t.Errorf("trial %d: %d entries of ρ break exact Hermiticity", trial, defects)
		}
		if err := rho.CheckPhysical(1e-9); err != nil {
			t.Errorf("trial %d: %v", trial, err)
		}
	}
	if separable == 0 || coupled == 0 {
		t.Fatalf("%d separable and %d coupled driven ticks, want some of each", separable, coupled)
	}
	t.Logf("%d separable and %d coupled driven ticks", separable, coupled)
}
