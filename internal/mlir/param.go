package mlir

import (
	"fmt"
	"strconv"

	"mqsspulse/internal/waveform"
)

// ParamExpr is the dialect's name for an unbound pulse-parameter slot (see
// waveform.ParamExpr). Lowering passes may rescale or negate the expression
// but never evaluate it; evaluation happens at bind time on the QIR module
// the backend emits.
type ParamExpr = waveform.ParamExpr

// exprString renders the expression in the textual form used by the printer
// and read by the parser: param<scale*name+offset>, a name that is not an
// identifier Go-quoted.
func exprString(e *ParamExpr) string {
	name := e.Param
	if !isIdent(name) {
		name = strconv.Quote(name)
	}
	return fmt.Sprintf("param<%g*%s%+g>", e.Scale, name, e.Offset)
}

// ExprVal makes an operand carrying an unbound parameter expression.
func ExprVal(e *ParamExpr) Value { return Value{Expr: e} }
