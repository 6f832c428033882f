package mlir

import (
	"fmt"

	"mqsspulse/internal/waveform"
)

// ParamExpr is the dialect's name for an unbound pulse-parameter slot (see
// waveform.ParamExpr). Lowering passes may rescale or negate the expression
// but never evaluate it; evaluation happens at bind time on the QIR module
// the backend emits.
type ParamExpr = waveform.ParamExpr

// exprString renders the expression in the textual form used by the printer.
func exprString(e *ParamExpr) string {
	return fmt.Sprintf("param<%g*%s%+g>", e.Scale, e.Param, e.Offset)
}

// ExprVal makes an operand carrying an unbound parameter expression.
func ExprVal(e *ParamExpr) Value { return Value{Expr: e} }
