// Package suite assembles the full mqssvet analyzer suite in one
// importable place, so the mqssvet command and its tests run exactly the
// same checks.
package suite

import (
	"mqsspulse/tools/mqssvet/analysis"
	"mqsspulse/tools/mqssvet/analyzers/ctxflow"
	"mqsspulse/tools/mqssvet/analyzers/deadexport"
	"mqsspulse/tools/mqssvet/analyzers/doccomment"
	"mqsspulse/tools/mqssvet/analyzers/hotalloc"
	"mqsspulse/tools/mqssvet/analyzers/nodrift"
	"mqsspulse/tools/mqssvet/analyzers/onlyhere"
)

// All is every analyzer the multichecker knows, in report order. The first
// four read one function at a time; deadexport and onlyhere read the whole
// program.
var All = []*analysis.Analyzer{
	nodrift.Analyzer,
	ctxflow.Analyzer,
	hotalloc.Analyzer,
	doccomment.Analyzer,
	deadexport.Analyzer,
	onlyhere.Analyzer,
}
