package readout

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// ErrDegenerate signals training data a discriminator cannot separate
// (identical class means, singular covariance).
var ErrDegenerate = errors.New("readout: degenerate training data")

// Discriminator classifies an integrated IQ point into 0 or 1 — the final
// stage of the readout chain. Implementations are value types with
// serializable models so trained discriminators survive process restarts
// and travel with calibration data.
type Discriminator interface {
	// Kind identifies the model family ("centroid", "linear").
	Kind() string
	// Discriminate classifies one point.
	Discriminate(p IQ) int
}

// Centroid is the nearest-mean discriminator: a point classifies as the
// state whose training centroid is closer.
type Centroid struct {
	Mean0 IQ `json:"mean0"`
	Mean1 IQ `json:"mean1"`
}

// Kind implements Discriminator.
func (*Centroid) Kind() string { return "centroid" }

// Discriminate implements Discriminator.
func (c *Centroid) Discriminate(p IQ) int {
	d0 := p.Sub(c.Mean0)
	d1 := p.Sub(c.Mean1)
	if d1.Dot(d1) < d0.Dot(d0) {
		return 1
	}
	return 0
}

// TrainCentroid fits a nearest-mean discriminator from labeled prep-0 and
// prep-1 shot sets.
func TrainCentroid(zeros, ones []IQ) (*Centroid, error) {
	if len(zeros) == 0 || len(ones) == 0 {
		return nil, fmt.Errorf("%w: empty class", ErrDegenerate)
	}
	c := &Centroid{Mean0: Mean(zeros), Mean1: Mean(ones)}
	sep := c.Mean1.Sub(c.Mean0)
	if sep.Dot(sep) == 0 {
		return nil, fmt.Errorf("%w: identical class means", ErrDegenerate)
	}
	return c, nil
}

// Linear is a linear (Fisher/LDA) discriminator: sign(w·p + b). For
// Gaussian clouds with shared covariance it is the optimal boundary, and
// classification is a single fused multiply-add per shot — the hot path
// an FPGA discriminator implements.
type Linear struct {
	WI   float64 `json:"wi"`
	WQ   float64 `json:"wq"`
	Bias float64 `json:"bias"`
}

// Kind implements Discriminator.
func (*Linear) Kind() string { return "linear" }

// Discriminate implements Discriminator.
func (l *Linear) Discriminate(p IQ) int {
	if l.WI*p.I+l.WQ*p.Q+l.Bias > 0 {
		return 1
	}
	return 0
}

// TrainLinear fits a Fisher linear discriminant: w = Σ⁻¹(μ₁−μ₀) with the
// pooled within-class covariance Σ, and the bias placing the boundary at
// the midpoint between the projected class means.
func TrainLinear(zeros, ones []IQ) (*Linear, error) {
	if len(zeros) < 2 || len(ones) < 2 {
		return nil, fmt.Errorf("%w: need at least two shots per class", ErrDegenerate)
	}
	m0, m1 := Mean(zeros), Mean(ones)
	// Pooled covariance, with a small ridge so isotropic synthetic clouds
	// and near-singular data stay invertible.
	var sII, sIQ, sQQ float64
	accum := func(pts []IQ, m IQ) {
		for _, p := range pts {
			di, dq := p.I-m.I, p.Q-m.Q
			sII += di * di
			sIQ += di * dq
			sQQ += dq * dq
		}
	}
	accum(zeros, m0)
	accum(ones, m1)
	n := float64(len(zeros) + len(ones) - 2)
	sII, sIQ, sQQ = sII/n, sIQ/n, sQQ/n
	ridge := 1e-9 * (sII + sQQ)
	if ridge == 0 {
		ridge = 1e-12
	}
	sII += ridge
	sQQ += ridge
	det := sII*sQQ - sIQ*sIQ
	if det <= 0 || math.IsNaN(det) {
		return nil, fmt.Errorf("%w: singular pooled covariance", ErrDegenerate)
	}
	dI, dQ := m1.I-m0.I, m1.Q-m0.Q
	if dI == 0 && dQ == 0 {
		return nil, fmt.Errorf("%w: identical class means", ErrDegenerate)
	}
	wI := (sQQ*dI - sIQ*dQ) / det
	wQ := (-sIQ*dI + sII*dQ) / det
	midI, midQ := (m0.I+m1.I)/2, (m0.Q+m1.Q)/2
	return &Linear{WI: wI, WQ: wQ, Bias: -(wI*midI + wQ*midQ)}, nil
}

// DiscriminateAll classifies a batch of points.
func DiscriminateAll(d Discriminator, points []IQ) []int {
	out := make([]int, len(points))
	for i, p := range points {
		out[i] = d.Discriminate(p)
	}
	return out
}

// model is the serialized envelope of a discriminator.
type model struct {
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data"`
}

// EncodeDiscriminator serializes a trained model to JSON.
func EncodeDiscriminator(d Discriminator) ([]byte, error) {
	data, err := json.Marshal(d)
	if err != nil {
		return nil, err
	}
	return json.Marshal(model{Kind: d.Kind(), Data: data})
}

// DecodeDiscriminator is the inverse of EncodeDiscriminator.
func DecodeDiscriminator(data []byte) (Discriminator, error) {
	var m model
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("readout: decode discriminator: %w", err)
	}
	var d Discriminator
	switch m.Kind {
	case "centroid":
		d = &Centroid{}
	case "linear":
		d = &Linear{}
	default:
		return nil, fmt.Errorf("readout: unknown discriminator kind %q", m.Kind)
	}
	if err := json.Unmarshal(m.Data, d); err != nil {
		return nil, fmt.Errorf("readout: decode %s model: %w", m.Kind, err)
	}
	return d, nil
}

// AssignmentError evaluates a discriminator on labeled hold-out shots:
// e01 is the fraction of prep-0 shots read as 1, e10 the fraction of
// prep-1 shots read as 0.
func AssignmentError(d Discriminator, zeros, ones []IQ) (e01, e10 float64) {
	if len(zeros) > 0 {
		n := 0
		for _, p := range zeros {
			if d.Discriminate(p) == 1 {
				n++
			}
		}
		e01 = float64(n) / float64(len(zeros))
	}
	if len(ones) > 0 {
		n := 0
		for _, p := range ones {
			if d.Discriminate(p) == 0 {
				n++
			}
		}
		e10 = float64(n) / float64(len(ones))
	}
	return e01, e10
}
