package waveform

// ParamExpr is an affine symbolic expression over one named template
// parameter: value = Scale·p + Offset. It is an unbound pulse-parameter slot
// (amplitude, angle, phase, detuning, or duration) that the template
// subsystem defers to bind time, and the one type every layer carries it in:
// the QPI records it, the dialect rescales or negates it, the QIR module
// evaluates it at Bind. Affine expressions are closed under the scalings
// gate→pulse lowering applies, so a slot survives compilation as a slot
// instead of forcing recompilation. A recorded expression is never written
// to, so layers share the pointer.
type ParamExpr struct {
	// Param is the template parameter name the expression references.
	Param string
	// Scale multiplies the bound parameter value.
	Scale float64
	// Offset is added after scaling.
	Offset float64
}

// Eval evaluates the expression at parameter value p.
func (e *ParamExpr) Eval(p float64) float64 { return e.Scale*p + e.Offset }

// Times returns the expression multiplied by k (k·Scale, k·Offset): −1 where
// a lowering flips a slot's sign (the virtual-Z phase of rz), 1/π where a
// rotation angle becomes the scale of the calibrated π envelope.
func (e *ParamExpr) Times(k float64) *ParamExpr {
	return &ParamExpr{Param: e.Param, Scale: e.Scale * k, Offset: e.Offset * k}
}
