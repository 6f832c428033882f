package mqsspulse_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"maps"
	"math"
	"slices"
	"testing"

	mqsspulse "mqsspulse"
	"mqsspulse/internal/experiments"
)

// answerDigest is the SHA-256 of a job's answer, as hex: Counts in
// ascending mask order, then every IQ point by its float bits, each list
// prefixed with its length.
func answerDigest(res *mqsspulse.Result) string {
	h := sha256.New()
	word := func(v uint64) { _ = binary.Write(h, binary.LittleEndian, v) }
	masks := slices.Sorted(maps.Keys(res.Counts))
	word(uint64(len(masks)))
	for _, m := range masks {
		word(m)
		word(uint64(res.Counts[m]))
	}
	word(uint64(len(res.IQ)))
	for _, row := range res.IQ {
		word(uint64(len(row)))
		for _, p := range row {
			word(math.Float64bits(p.I))
			word(math.Float64bits(p.Q))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDensityEngineAnswerDigests pins what open-system superconducting jobs
// answer, bit for bit, at fixed device seeds: experiments.PulseKernel on
// sc-2 (DRAG X gates and Gaussian plays on both drives, then a Gaussian on
// the coupler) at the kerneled and discriminated levels, and a layer of
// single-qubit gates on sc-3. A change to how the density engine
// integrates a tick may move the final ρ in its last bits, but not the
// counts or IQ points a job returns. Each job runs first on a fresh
// device, so its shot seed is the device's first.
func TestDensityEngineAnswerDigests(t *testing.T) {
	run := func(t *testing.T, dev *mqsspulse.SimDevice, k *mqsspulse.Circuit, level mqsspulse.MeasLevel) *mqsspulse.Result {
		t.Helper()
		stack, err := mqsspulse.NewStack(dev)
		if err != nil {
			t.Fatal(err)
		}
		defer stack.Close()
		ad := &mqsspulse.NativeAdapter{Client: stack.Client, Target: dev.Name()}
		res, err := mqsspulse.Run(context.Background(), ad, k, mqsspulse.WithShots(4096), mqsspulse.WithMeasLevel(level))
		if err != nil {
			t.Fatal(err)
		}
		if res.Shots != 4096 || len(res.Counts) < 2 || (level == mqsspulse.MeasKerneled) != (len(res.IQ) == 4096) {
			t.Fatalf("%d shots, %d outcomes, %d IQ rows", res.Shots, len(res.Counts), len(res.IQ))
		}
		return res
	}
	sc := func(t *testing.T, sites int, seed int64) *mqsspulse.SimDevice {
		t.Helper()
		dev, err := mqsspulse.NewSuperconductingDevice("golden", sites, seed)
		if err != nil {
			t.Fatal(err)
		}
		return dev
	}
	pulseKernel := func(seed int64, level mqsspulse.MeasLevel) func(t *testing.T) *mqsspulse.Result {
		return func(t *testing.T) *mqsspulse.Result {
			dev := sc(t, 2, seed)
			return run(t, dev, experiments.PulseKernel(dev), level)
		}
	}
	layer := func(t *testing.T) *mqsspulse.Result {
		k := mqsspulse.NewCircuit("single_qubit_layer", 3, 3).X(0).SX(1).X(2).H(0).
			Measure(0, 0).Measure(1, 1).Measure(2, 2)
		if err := k.End(); err != nil {
			t.Fatal(err)
		}
		return run(t, sc(t, 3, 7), k, mqsspulse.MeasKerneled)
	}
	for _, c := range []struct {
		name string
		res  func(t *testing.T) *mqsspulse.Result
		want string
	}{
		{"pulse-kernel-sc2-seed7-kerneled", pulseKernel(7, mqsspulse.MeasKerneled), "900938bb2136946ba5d7100bdb98889f4b1203fdae5bd174249b527cea7d9604"},
		{"pulse-kernel-sc2-seed7-discriminated", pulseKernel(7, mqsspulse.MeasDiscriminated), "a4fff2232cbf0af9cc3a269ffada248270ef6a714cd2e98d23c39b4db4693cd0"},
		{"pulse-kernel-sc2-seed21-kerneled", pulseKernel(21, mqsspulse.MeasKerneled), "4689def172fa1dc73b1238e04b4d2573b085c77213a6ff8373572987387e1426"},
		{"pulse-kernel-sc2-seed21-discriminated", pulseKernel(21, mqsspulse.MeasDiscriminated), "9d342e0d3f16c386e0741464e87ecae34060d81fa9cb308ba4cc1c41e44e1305"},
		{"single-qubit-layer-sc3-seed7", layer, "83e0950851222b328dc94d6efea1a24b4880c7b0c663d9078cecedb71ac66643"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := answerDigest(c.res(t)); got != c.want {
				t.Errorf("digest %s, want %s", got, c.want)
			}
		})
	}
}
