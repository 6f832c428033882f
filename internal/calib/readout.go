package calib

import (
	"context"
	"fmt"

	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qir"
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

// runKerneled submits a module at kerneled measurement level and returns
// the IQ point of the single capture for every shot.
func runKerneled(ctx context.Context, dev qdmi.Device, mod *qir.Module, shots int) ([]readout.IQ, error) {
	as, ok := dev.(qdmi.AcquisitionSubmitter)
	if !ok {
		return nil, fmt.Errorf("%w: device %s cannot return kerneled measurement data",
			qdmi.ErrNotSupported, dev.Name())
	}
	job, err := as.SubmitJobOpts(mod.Emit(), qdmi.FormatQIRPulse, qdmi.JobOptions{
		Shots: shots, MeasLevel: readout.LevelKerneled,
	})
	if err != nil {
		return nil, err
	}
	if st := job.Wait(ctx); st != qdmi.JobDone {
		_, rerr := job.Result()
		return nil, fmt.Errorf("calib: job %s %v: %v", job.ID(), st, rerr)
	}
	res, err := job.Result()
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

// prepModules builds the prep-0 and prep-1 single-capture experiments.
func prepModules(dev qdmi.Device, site int) (prep0, prep1 *qir.Module, err error) {
	drive, ro, err := sitePorts(dev, site)
	if err != nil {
		return nil, nil, err
	}
	xw, err := gateWaveform(dev, "x", site)
	if err != nil {
		return nil, nil, err
	}
	window := readoutWindow(dev, site)
	prep0 = pulseModule("readout_prep0", drive, ro, nil, []qir.Call{
		{Callee: qir.IntrCapture, Args: []qir.Arg{qir.PortArg(1), qir.ResultArg(0), qir.I64Arg(window)}},
	})
	prep1 = pulseModule("readout_prep1", drive, ro,
		[]qir.WaveformConst{{Name: "x", Samples: xw}},
		[]qir.Call{
			{Callee: qir.IntrPlay, Args: []qir.Arg{qir.PortArg(0), qir.WaveformArg("x")}},
			{Callee: qir.IntrBarrier, Args: []qir.Arg{qir.PortArg(0), qir.PortArg(1)}},
			{Callee: qir.IntrCapture, Args: []qir.Arg{qir.PortArg(1), qir.ResultArg(0), qir.I64Arg(window)}},
		})
	return prep0, prep1, nil
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

// ReadoutCalibrate runs prep-0/prep-1 experiments through QDMI at the
// kerneled measurement level, trains a state discriminator on half the
// shots, evaluates it on the held-out half, and writes the measured
// assignment fidelity back into the device's calibration table — the
// readout analogue of the Rabi/Ramsey routines.
func ReadoutCalibrate(ctx context.Context, dev ReadoutTarget, site, shots int) (*ReadoutCalibResult, error) {
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
	prep0, prep1, err := prepModules(dev, site)
	if err != nil {
		return nil, err
	}
	zeros, err := runKerneled(ctx, dev, prep0, shots)
	if err != nil {
		return nil, err
	}
	ones, err := runKerneled(ctx, dev, prep1, shots)
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
func ReadoutMitigator(ctx context.Context, dev qdmi.Device, sites []int, shots int) (*readout.Mitigator, error) {
	if shots <= 0 {
		shots = 2000
	}
	if len(sites) == 0 {
		return nil, fmt.Errorf("calib: mitigator needs at least one site")
	}
	bits := make([]int, len(sites))
	mats := make([]readout.Confusion, len(sites))
	for i, site := range sites {
		prep0, prep1, err := prepModules(dev, site)
		if err != nil {
			return nil, err
		}
		p1Given0, err := runP1(ctx, dev, prep0, shots)
		if err != nil {
			return nil, err
		}
		p1Given1, err := runP1(ctx, dev, prep1, shots)
		if err != nil {
			return nil, err
		}
		bits[i] = i
		mats[i] = readout.Confusion{P01: p1Given0, P10: 1 - p1Given1}
	}
	return readout.NewMitigator(bits, mats)
}
