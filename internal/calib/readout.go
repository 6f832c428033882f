package calib

import (
	"context"
	"fmt"

	"mqsspulse/internal/client"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/readout"
)

// ReadoutTarget is the device surface the readout-calibration routine
// needs: QDMI plus assignment-fidelity writeback into the calibration
// table.
type ReadoutTarget interface {
	qdmi.Device
	SetCalibratedReadoutFidelity(site int, f float64)
}

// ReadoutCalibResult reports a readout calibration: the trained
// discriminator, its serialized model, and the held-out assignment
// statistics written back into the device calibration table.
type ReadoutCalibResult struct {
	Site int
	// Fidelity is the balanced assignment fidelity on held-out shots.
	Fidelity float64
	// Confusion is the held-out assignment matrix (P01/P10).
	Confusion readout.Confusion
	// Discriminator is the trained model (linear, with a centroid
	// fallback when LDA training is degenerate).
	Discriminator readout.Discriminator
	// Model is the serialized discriminator, ready to persist.
	Model []byte
}

// prep runs one of the two single-capture preparation experiments on the
// bench's site: prep-0 measures the idle qubit, prep-1 measures after a
// calibrated π pulse.
func (b *bench) prep(ctx context.Context, one bool) (*readout.Result, error) {
	if one {
		return b.run(ctx, b.kernel("readout_prep1", "x"))
	}
	return b.run(ctx, b.kernel("readout_prep0"))
}

// prepIQ is prep at the kerneled measurement level: the IQ point of the
// single capture for every shot.
func (b *bench) prepIQ(ctx context.Context, one bool) ([]readout.IQ, error) {
	res, err := b.prep(ctx, one)
	if err != nil {
		return nil, err
	}
	points := make([]readout.IQ, 0, len(res.IQ))
	for _, row := range res.IQ {
		if len(row) != 1 {
			return nil, fmt.Errorf("calib: expected one capture per shot, got %d", len(row))
		}
		points = append(points, row[0])
	}
	return points, nil
}

// splitShots interleaves a shot set into train and hold-out halves, so
// slow drift during acquisition lands evenly in both.
func splitShots(points []readout.IQ) (train, hold []readout.IQ) {
	for i, p := range points {
		if i%2 == 0 {
			train = append(train, p)
		} else {
			hold = append(hold, p)
		}
	}
	return train, hold
}

// ReadoutCalibrate runs prep-0/prep-1 experiments through the stack at the
// kerneled measurement level, trains a state discriminator on half the
// shots, evaluates it on the held-out half, and writes the measured
// assignment fidelity back into the device's calibration table — the
// readout analogue of the Rabi/Ramsey routines.
func ReadoutCalibrate(ctx context.Context, cl *client.Client, dev ReadoutTarget, site, shots int) (*ReadoutCalibResult, error) {
	if shots <= 0 {
		shots = 2000
	}
	// Below this the train/hold-out split degenerates (an empty hold-out
	// set would report a false fidelity of 1.0 into the calibration table).
	const minShots = 16
	if shots < minShots {
		return nil, fmt.Errorf("%w: readout calibration needs at least %d shots, got %d",
			qdmi.ErrInvalidArgument, minShots, shots)
	}
	b, err := newBench(cl, dev, site, shots)
	if err != nil {
		return nil, err
	}
	b.opts.MeasLevel = readout.LevelKerneled
	zeros, err := b.prepIQ(ctx, false)
	if err != nil {
		return nil, err
	}
	ones, err := b.prepIQ(ctx, true)
	if err != nil {
		return nil, err
	}
	train0, hold0 := splitShots(zeros)
	train1, hold1 := splitShots(ones)

	var disc readout.Discriminator
	disc, err = readout.TrainLinear(train0, train1)
	if err != nil {
		// Degenerate covariance: fall back to the nearest-centroid model.
		disc, err = readout.TrainCentroid(train0, train1)
		if err != nil {
			return nil, fmt.Errorf("calib: readout discriminator training: %w", err)
		}
	}
	e01, e10 := readout.AssignmentError(disc, hold0, hold1)
	res := &ReadoutCalibResult{
		Site:          site,
		Fidelity:      1 - (e01+e10)/2,
		Confusion:     readout.Confusion{P01: e01, P10: e10},
		Discriminator: disc,
	}
	if res.Model, err = readout.EncodeDiscriminator(disc); err != nil {
		return nil, err
	}
	dev.SetCalibratedReadoutFidelity(site, res.Fidelity)
	return res, nil
}

// ReadoutMitigator builds a confusion-matrix mitigator for the listed
// sites from discriminated prep-0/prep-1 experiments — the assignment
// matrix is measured through the same readout chain user jobs use. The
// returned mitigator corrects counts of kernels that measure sites[i]
// into classical bit i (the convention of in-order Measure calls).
func ReadoutMitigator(ctx context.Context, cl *client.Client, dev qdmi.Device, sites []int, shots int) (*readout.Mitigator, error) {
	if shots <= 0 {
		shots = 2000
	}
	if len(sites) == 0 {
		return nil, fmt.Errorf("calib: mitigator needs at least one site")
	}
	bits := make([]int, len(sites))
	mats := make([]readout.Confusion, len(sites))
	for i, site := range sites {
		b, err := newBench(cl, dev, site, shots)
		if err != nil {
			return nil, err
		}
		given0, err := b.prep(ctx, false)
		if err != nil {
			return nil, err
		}
		given1, err := b.prep(ctx, true)
		if err != nil {
			return nil, err
		}
		bits[i] = i
		mats[i] = readout.Confusion{P01: given0.Probability(1), P10: 1 - given1.Probability(1)}
	}
	return readout.NewMitigator(bits, mats)
}
