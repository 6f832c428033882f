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

// Probability returns the observed frequency of a classical bitmask.
func (r *Result) Probability(mask uint64) float64 {
	if r.Shots == 0 {
		return 0
	}
	return float64(r.Counts[mask]) / float64(r.Shots)
}
