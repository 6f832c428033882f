package readout

// Kernel integrates a raw capture trace into one IQ point — the FPGA
// integration stage of a readout chain.
type Kernel interface {
	// Name identifies the kernel family.
	Name() string
	// Integrate reduces a trace (complex samples, I = real, Q = imag) to a
	// single point.
	Integrate(trace []complex128) IQ
}

// Boxcar is the uniform-weight integration kernel: the mean of the trace.
type Boxcar struct{}

// Name implements Kernel.
func (Boxcar) Name() string { return "boxcar" }

// Integrate implements Kernel.
func (Boxcar) Integrate(trace []complex128) IQ {
	if len(trace) == 0 {
		return IQ{}
	}
	var acc complex128
	for _, s := range trace {
		acc += s
	}
	n := complex(float64(len(trace)), 0)
	acc /= n
	return IQ{I: real(acc), Q: imag(acc)}
}
