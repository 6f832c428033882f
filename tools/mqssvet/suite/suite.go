// Package suite assembles the full mqssvet analyzer suite in one
// importable place, so the mqssvet command and its tests run exactly the
// same checks.
package suite

import (
	"mqsspulse/tools/mqssvet/analysis"
	"mqsspulse/tools/mqssvet/analyzers/ctxcancel"
	"mqsspulse/tools/mqssvet/analyzers/ctxflow"
	"mqsspulse/tools/mqssvet/analyzers/doccomment"
	"mqsspulse/tools/mqssvet/analyzers/goleak"
	"mqsspulse/tools/mqssvet/analyzers/hotalloc"
	"mqsspulse/tools/mqssvet/analyzers/nodrift"
)

// All is every analyzer the multichecker knows, in report order. The
// CFG-backed concurrency checks (ctxcancel, goleak) sit with ctxflow.
var All = []*analysis.Analyzer{
	nodrift.Analyzer,
	ctxflow.Analyzer,
	ctxcancel.Analyzer,
	goleak.Analyzer,
	hotalloc.Analyzer,
	doccomment.Analyzer,
}
