package main

import (
	"testing"

	"mqsspulse/tools/mqssvet/analysis/analysistest"
	"mqsspulse/tools/mqssvet/analyzers/ctxcancel"
	"mqsspulse/tools/mqssvet/analyzers/ctxflow"
	"mqsspulse/tools/mqssvet/analyzers/doccomment"
	"mqsspulse/tools/mqssvet/analyzers/goleak"
	"mqsspulse/tools/mqssvet/analyzers/hotalloc"
	"mqsspulse/tools/mqssvet/analyzers/lockorder"
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

// TestSuppression pins the //lint:mqssvet contract end to end: a matching
// disable silences the finding, a mismatched name does not.
func TestSuppression(t *testing.T) {
	analysistest.Run(t, "./testdata/src/suppress", ctxflow.Analyzer)
}

// TestGoleak covers the CFG termination check: forever-loops leak,
// ctx.Done/closed-channel/worker-retire exits pass.
func TestGoleak(t *testing.T) {
	analysistest.Run(t, "./testdata/src/goleak/...", goleak.Analyzer)
}

// TestCtxcancel covers the cancellability check: unguarded sends,
// receives, selects, and sync Waits in ctx-taking functions.
func TestCtxcancel(t *testing.T) {
	analysistest.Run(t, "./testdata/src/ctxcancel", ctxcancel.Analyzer)
}

// TestLockorder covers rank violations, direct self-deadlock, and ABBA
// cycles through the interprocedural summary join.
func TestLockorder(t *testing.T) {
	analysistest.Run(t, "./testdata/src/lockorder", lockorder.Analyzer)
}

// TestSuiteListsAllAnalyzers guards the multichecker registration: a new
// analyzer package that never lands in the suite would silently not run.
func TestSuiteListsAllAnalyzers(t *testing.T) {
	want := []string{"nodrift", "ctxflow", "ctxcancel", "lockorder", "goleak", "hotalloc", "doccomment"}
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
	picked, err := selectAnalyzers("goleak,ctxflow")
	if err != nil {
		t.Fatal(err)
	}
	if len(picked) != 2 || picked[0].Name != "goleak" || picked[1].Name != "ctxflow" {
		t.Fatalf("picked = %v", picked)
	}
	if _, err := selectAnalyzers("nosuch"); err == nil {
		t.Fatal("unknown analyzer did not error")
	}
}
