package ptemplate

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"mqsspulse/internal/compiler"
	"mqsspulse/internal/qpi"
)

// fixedKernel is a two-qubit kernel through every lowering the gate set
// has: rotations, virtual Zs, the H sandwich of cx, a coupler pulse, two
// measures.
func fixedKernel(t *testing.T) *qpi.Circuit {
	t.Helper()
	k := qpi.NewCircuit("fixed", 2, 2).
		H(0).RX(1, 0.7).RZ(0, 1.1).CX(0, 1).SX(1).X(0).CZ(0, 1).RX(0, 2.1).
		Measure(0, 0).Measure(1, 1)
	if err := k.End(); err != nil {
		t.Fatal(err)
	}
	return k
}

// TestTextEmittedOnceForAllCallers: lowering stores no text; the first
// Text call emits it and every caller — here 16 at once, for the race
// detector — gets those same bytes, which are what compiler.Compile
// returns for the kernel. A template's text is emitted the same way and
// carries its slots.
func TestTextEmittedOnceForAllCallers(t *testing.T) {
	dev := templateDevice(t)
	k := fixedKernel(t)
	program, err := LowerCircuit(k, nil, dev, "tpl-sc")
	if err != nil {
		t.Fatal(err)
	}
	if program.text != nil {
		t.Fatal("lowering emitted text nobody asked for")
	}
	texts := make([][]byte, 16)
	var wg sync.WaitGroup
	for i := range texts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			texts[i] = program.Text()
		}()
	}
	wg.Wait()
	ref, err := compiler.Compile(k, dev)
	if err != nil {
		t.Fatal(err)
	}
	for i, text := range texts {
		if len(text) == 0 || &text[0] != &texts[0][0] {
			t.Fatalf("caller %d got its own copy of the text", i)
		}
	}
	if !bytes.Equal(texts[0], ref.Payload) {
		t.Fatalf("Text differs from compiler.Compile's payload\ntext:\n%s\npayload:\n%s", texts[0], ref.Payload)
	}

	tpl, err := Lower(rabiTemplate(t), dev, "tpl-sc")
	if err != nil {
		t.Fatal(err)
	}
	if tpl.text != nil {
		t.Fatal("lowering a template emitted text nobody asked for")
	}
	if text := tpl.Text(); !bytes.Contains(text, []byte(`param("theta", `)) {
		t.Fatalf("template text carries no slot for theta:\n%s", text)
	}
}

// TestLowerCircuitBudget bounds what one lowering-cache miss allocates. The
// counts do not depend on the machine; the bounds sit ~10% above what this
// kernel costs (609 allocations and 111 KB; 631 and 114 KB under the race
// detector) and far below what it cost while lowering also emitted text and
// re-sampled every def at every check (1,642 and 380 KB).
func TestLowerCircuitBudget(t *testing.T) {
	dev := templateDevice(t)
	k := fixedKernel(t)
	lower := func() {
		if _, err := LowerCircuit(k, nil, dev, "tpl-sc"); err != nil {
			t.Fatal(err)
		}
	}
	lower()
	const runs = 50
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		lower()
	}
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / runs
	size := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("LowerCircuit: %d allocations, %d bytes", allocs, size)
	if allocs > 680 || size > 125<<10 {
		t.Fatalf("LowerCircuit allocates %d times, %d bytes; budget 680 and %d", allocs, size, 125<<10)
	}
}
