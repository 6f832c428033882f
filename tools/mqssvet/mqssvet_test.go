package main

import (
	"slices"
	"testing"

	"mqsspulse/tools/mqssvet/analysis"
	"mqsspulse/tools/mqssvet/analysis/analysistest"
	"mqsspulse/tools/mqssvet/analyzers/ctxflow"
	"mqsspulse/tools/mqssvet/analyzers/deadexport"
	"mqsspulse/tools/mqssvet/analyzers/doccomment"
	"mqsspulse/tools/mqssvet/analyzers/hotalloc"
	"mqsspulse/tools/mqssvet/analyzers/nodrift"
	"mqsspulse/tools/mqssvet/analyzers/onlyhere"
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

// fixtures is the import path the onlyhere fixtures' roots live under.
const fixtures = "mqsspulse/tools/mqssvet/testdata/src/onlyhere"

// TestOnlyhereUses: a call of a device's method outside the QRM, a method
// value of it, writes of a field outside its one writer, a Store of the
// atomic pointer of one type outside its one writer while another type's
// passes, a declaration by a deleted name and a spelled-out pair slice.
func TestOnlyhereUses(t *testing.T) {
	analysistest.Run(t, "./testdata/src/onlyhere/uses/...", onlyhere.New(fixtures+"/uses", []onlyhere.Rule{
		{ID: "one way to a device", Facts: []string{"dev.Device.Submit", "dev.Submitter.Submit"}, Allow: []string{"qrm"}},
		{ID: "one calibration writer", Facts: []string{"dev.Device.epoch=", "sync/atomic.Pointer[dev.calibration].Store"}, Allow: []string{"dev.Device.Bump"}},
		{ID: "one sampler", Facts: []string{"def ShotWorkers"}},
		{ID: "one waveform value", Facts: []string{"[][2]float64"}},
	}))
}

// TestOnlyhereLiterals: a value of a type built outside its builder — as a
// literal, a zero value filled field by field, through a renamed import,
// and by new.
func TestOnlyhereLiterals(t *testing.T) {
	analysistest.Run(t, "./testdata/src/onlyhere/literals/...", onlyhere.New(fixtures+"/literals", []onlyhere.Rule{
		{ID: "one request builder", Facts: []string{"qrm.Request{}"}, Allow: []string{"client.Client.enqueue"}},
	}))
}

// TestOnlyhereImports: a package importing a module package outside its set.
func TestOnlyhereImports(t *testing.T) {
	analysistest.Run(t, "./testdata/src/onlyhere/imports/...", onlyhere.New(fixtures+"/imports", []onlyhere.Rule{
		{ID: "optctl is pure math", Facts: []string{"optctl imports"}, Allow: []string{"linalg"}},
	}))
}

// TestOnlyhereBlocks: goroutines and waits outside the listed functions,
// select cases not counting, and a listed function whose test was renamed.
func TestOnlyhereBlocks(t *testing.T) {
	analysistest.Run(t, "./testdata/src/onlyhere/blocks", onlyhere.New(fixtures+"/blocks", []onlyhere.Rule{
		{ID: "named goroutines and waits", Facts: []string{"blocks"}, Allow: []string{".Serve TestServe", ".Drain TestDrain"}},
	}))
}

// TestOnlyhereGateCase: a constant case over gate names, however spelled.
func TestOnlyhereGateCase(t *testing.T) {
	analysistest.Run(t, "./testdata/src/onlyhere/gates", onlyhere.New(fixtures+"/gates", []onlyhere.Rule{
		{ID: "one meaning of a gate", Facts: []string{`case "sx"`, `case "z"`}, Allow: []string{".Table"}},
	}))
}

// TestOnlyhereMutex: a mutex in the timeline, through its field or a
// renamed import, and a lock-rank marker.
func TestOnlyhereMutex(t *testing.T) {
	analysistest.Run(t, "./testdata/src/onlyhere/trace", onlyhere.New(fixtures+"/trace", []onlyhere.Rule{
		{ID: "one writer per trace", Facts: []string{"sync.Mutex", "sync.RWMutex"}, Scope: []string{".Timeline"}},
		{ID: "one writer per trace", Facts: []string{"mqss:lockrank"}},
	}))
}

// staleRules names an object, a scope, a type argument and an allowed
// function the stale fixture no longer has.
var staleRules = []onlyhere.Rule{
	{ID: "one way to a device", Facts: []string{"dev.Device.Submit", "dev.Device.Cancel"}, Allow: []string{"qrm.Dispatch", "qrm.Gone"}},
	{ID: "one calibration writer", Facts: []string{"sync/atomic.Pointer[dev.calibration].Store"}},
	{ID: "one writer per trace", Facts: []string{"sync.Mutex"}, Scope: []string{"dev.Timeline"}},
}

// TestOnlyhereStaleEntries: over the whole fixture every entry naming what
// is gone is reported; loaded without qrm, only the entries of dev are.
func TestOnlyhereStaleEntries(t *testing.T) {
	for _, tc := range []struct {
		pattern string
		want    []string
	}{
		{"./testdata/src/onlyhere/stale/...", []string{
			"one calibration writer: stale table entry: sync/atomic.Pointer[dev.calibration].Store does not exist",
			"one way to a device: stale table entry: dev.Device.Cancel does not exist",
			"one way to a device: stale table entry: qrm.Gone holds none of [\"dev.Device.Submit\" \"dev.Device.Cancel\"]",
			"one writer per trace: stale table entry: dev.Timeline does not exist",
		}},
		{"./testdata/src/onlyhere/stale/dev", []string{
			"one calibration writer: stale table entry: sync/atomic.Pointer[dev.calibration].Store does not exist",
			"one way to a device: stale table entry: dev.Device.Cancel does not exist",
			"one writer per trace: stale table entry: dev.Timeline does not exist",
		}},
	} {
		pkgs, fset, err := analysis.Load(".", []string{tc.pattern})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, d := range analysis.Run(fset, pkgs, []*analysis.Analyzer{onlyhere.New(fixtures+"/stale", staleRules)}, suite.All) {
			got = append(got, d.Message)
		}
		slices.Sort(got)
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s:\ngot  %q\nwant %q", tc.pattern, got, tc.want)
		}
	}
}

// TestOnlyhereReportsNothingStaleOnAPartialTree: loaded without the other
// packages its table names, the module's own table checks qrm's entries
// and reports nothing.
func TestOnlyhereReportsNothingStaleOnAPartialTree(t *testing.T) {
	pkgs, fset, err := analysis.Load(".", []string{"../../internal/qrm"})
	if err != nil {
		t.Fatal(err)
	}
	if diags := analysis.Run(fset, pkgs, []*analysis.Analyzer{onlyhere.Analyzer}, suite.All); len(diags) != 0 {
		t.Fatalf("partial tree reported %d findings, first: %s", len(diags), diags[0].Message)
	}
}

// TestSuppression pins the //lint:mqssvet contract end to end: a matching
// disable silences the finding, a mismatched name does not, a name that
// is no analyzer is reported, and an onlyhere finding survives both
// disable=onlyhere and disable=all.
func TestSuppression(t *testing.T) {
	analysistest.Run(t, "./testdata/src/suppress", ctxflow.Analyzer, onlyhere.New("mqsspulse/tools/mqssvet/testdata/src/suppress", []onlyhere.Rule{
		{ID: "no goroutines here", Facts: []string{"blocks"}},
	}))
}

// TestSuiteListsAllAnalyzers guards the multichecker registration: a new
// analyzer package that never lands in the suite would silently not run.
func TestSuiteListsAllAnalyzers(t *testing.T) {
	want := []string{"nodrift", "ctxflow", "hotalloc", "doccomment", "deadexport", "onlyhere"}
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
