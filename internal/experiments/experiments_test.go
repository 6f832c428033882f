package experiments

import (
	"context"
	"strconv"
	"strings"
	"testing"
)

func TestF1TopDownShape(t *testing.T) {
	tab, err := F1TopDown(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "EXP-F1" || len(tab.Rows) != 8 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if r := tab.Render(); !strings.Contains(r, "frontend") || !strings.Contains(r, "EXP-F1") {
		t.Fatal("render incomplete")
	}
}

func TestF3QDMIShape(t *testing.T) {
	tab, err := F3QDMI(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// 3 devices × 5 queries.
	if len(tab.Rows) != 15 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Every query should be sub-microsecond.
	for _, row := range tab.Rows {
		ns, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("bad ns cell %q", row[3])
		}
		if ns > 10000 {
			t.Fatalf("query %s took %v ns", row[1], ns)
		}
	}
}

func TestL1OverheadShape(t *testing.T) {
	tab, err := L1Overhead(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// The reproduction claim: interpreted construct must cost more than
	// compiled construct.
	compiled, err := strconv.ParseFloat(tab.Rows[0][3], 64)
	if err != nil {
		t.Fatal(err)
	}
	interpreted, err := strconv.ParseFloat(tab.Rows[1][3], 64)
	if err != nil {
		t.Fatal(err)
	}
	if interpreted <= compiled {
		t.Fatalf("interpreted (%g µs) not slower than compiled (%g µs)", interpreted, compiled)
	}
}

func TestL2MLIRShape(t *testing.T) {
	tab, err := L2MLIR(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// parse + verify + 6 pipeline passes.
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d: %v", len(tab.Rows), tab.Rows)
	}
}

func TestL3QIRShape(t *testing.T) {
	tab, err := L3QIR(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 9 { // 3 devices × 3 steps
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestByIDResolvesAll(t *testing.T) {
	for _, e := range Experiments {
		if _, ok := ByID(e.ID); !ok {
			t.Errorf("%s unresolvable", e.ID)
		}
		if _, ok := ByID(strings.ToLower(e.ID)); !ok {
			t.Errorf("%s (lowercase) unresolvable", e.ID)
		}
	}
	if _, ok := ByID("EXP-Z9"); ok {
		t.Error("ghost experiment resolvable")
	}
}

func TestKernelBuilders(t *testing.T) {
	b := BellKernel()
	if !b.Finished() || b.CountKind(3) != 0 {
		t.Fatal("bell kernel malformed")
	}
}

func TestTableRenderAlignment(t *testing.T) {
	tab := &Table{
		ID: "T", Title: "test",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"xxxxxxx", "y"}},
		Notes:   []string{"a note"},
	}
	out := tab.Render()
	if !strings.Contains(out, "note: a note") {
		t.Fatal("notes missing")
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 4 {
		t.Fatal("too few lines")
	}
}
