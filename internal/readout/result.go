package readout

// Result is a completed job's measurement data, the one type every layer
// from the device up to the QPI hands on: counts keyed by the classical
// register bitmask, always populated, plus — when the job ran at a kerneled
// or raw measurement level — the IQ-plane acquisition records beneath them.
type Result struct {
	Counts map[uint64]int
	Shots  int
	// DurationSeconds is the executed schedule length (pulse backends).
	DurationSeconds float64

	// MeasLevel records the measurement level of the returned data.
	MeasLevel MeasLevel
	// Bits lists the captured classical-bit positions in the column order
	// of IQ and Raw.
	Bits []int
	// IQ holds one integrated point per capture per shot (one averaged row
	// under MeasReturn avg); kerneled and raw levels only.
	IQ [][]IQ
	// Raw holds per-sample capture traces, [shot][capture][sample]; raw
	// level only.
	Raw [][][]complex128
}

// IQColumn returns every shot's integrated point for the capture that
// wrote classical bit cb, or nil when the bit was not captured or the run
// was discriminated-level.
func (r *Result) IQColumn(cb int) []IQ {
	for i, b := range r.Bits {
		if b != cb {
			continue
		}
		out := make([]IQ, 0, len(r.IQ))
		for _, row := range r.IQ {
			if i < len(row) {
				out = append(out, row[i])
			}
		}
		return out
	}
	return nil
}

// Probability returns the observed frequency of a classical bitmask.
func (r *Result) Probability(mask uint64) float64 {
	if r.Shots == 0 {
		return 0
	}
	return float64(r.Counts[mask]) / float64(r.Shots)
}

// ExpectationZ returns the ±1 expectation of classical bit cb (0 → +1,
// 1 → −1), the estimator VQE-style loops consume.
func (r *Result) ExpectationZ(cb int) float64 {
	if r.Shots == 0 {
		return 0
	}
	acc := 0
	for mask, n := range r.Counts {
		if (mask>>uint(cb))&1 == 0 {
			acc += n
		} else {
			acc -= n
		}
	}
	return float64(acc) / float64(r.Shots)
}
