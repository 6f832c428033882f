package main

import (
	"testing"

	"mqsspulse/tools/mqssvet/analysis"
	"mqsspulse/tools/mqssvet/analysis/analysistest"
	"mqsspulse/tools/mqssvet/analyzers/ctxflow"
	"mqsspulse/tools/mqssvet/analyzers/deadexport"
	"mqsspulse/tools/mqssvet/analyzers/doccomment"
	"mqsspulse/tools/mqssvet/analyzers/hotalloc"
	"mqsspulse/tools/mqssvet/analyzers/nodrift"
	"mqsspulse/tools/mqssvet/suite"
)

func TestCtxflow(t *testing.T) {
	analysistest.Run(t, "./testdata/src/ctxflow", ctxflow.Analyzer)
}

func TestNodrift(t *testing.T) {
	analysistest.Run(t, "./testdata/src/nodrift", nodrift.Analyzer)
}

func TestHotalloc(t *testing.T) {
	analysistest.Run(t, "./testdata/src/hotalloc", hotalloc.Analyzer)
}

func TestDoccomment(t *testing.T) {
	analysistest.Run(t, "./testdata/src/doccomment", doccomment.Analyzer)
}

// TestDeadexport runs the program-level pass over a whole tree: an uncalled
// export and one only a _test.go file calls are reported; an interface's
// method, a container/heap method and an allowlisted name are not.
func TestDeadexport(t *testing.T) {
	analysistest.Run(t, "./testdata/src/deadexport/...", deadexport.Analyzer)
}

// TestDeadexportReportsNothingOnAPartialTree: loaded without the root that
// calls into it, the internal package's callers are unknown, so the pass
// reports nothing rather than every name.
func TestDeadexportReportsNothingOnAPartialTree(t *testing.T) {
	pkgs, fset, err := analysis.Load(".", []string{"./testdata/src/deadexport/internal/..."})
	if err != nil {
		t.Fatal(err)
	}
	if diags := analysis.Run(fset, pkgs, []*analysis.Analyzer{deadexport.Analyzer}, suite.All); len(diags) != 0 {
		t.Fatalf("partial tree reported %d names, first: %s", len(diags), diags[0].Message)
	}
}

// TestSuppression pins the //lint:mqssvet contract end to end: a matching
// disable silences the finding, a mismatched name does not, and a name that
// is no analyzer is reported.
func TestSuppression(t *testing.T) {
	analysistest.Run(t, "./testdata/src/suppress", ctxflow.Analyzer)
}

// TestSuiteListsAllAnalyzers guards the multichecker registration: a new
// analyzer package that never lands in the suite would silently not run.
func TestSuiteListsAllAnalyzers(t *testing.T) {
	want := []string{"nodrift", "ctxflow", "hotalloc", "doccomment", "deadexport"}
	if len(suite.All) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(suite.All), len(want))
	}
	for i, name := range want {
		if suite.All[i].Name != name {
			t.Errorf("suite[%d] = %s, want %s", i, suite.All[i].Name, name)
		}
	}
}

func TestSelectAnalyzers(t *testing.T) {
	picked, err := selectAnalyzers("hotalloc,deadexport,ctxflow")
	if err != nil {
		t.Fatal(err)
	}
	if len(picked) != 3 || picked[0].Name != "hotalloc" || picked[1].Name != "deadexport" || picked[2].Name != "ctxflow" {
		t.Fatalf("picked = %v", picked)
	}
	for _, gone := range []string{"nosuch", "goleak", "ctxcancel"} {
		if _, err := selectAnalyzers(gone); err == nil {
			t.Fatalf("unknown analyzer %q did not error", gone)
		}
	}
}
