package client

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"mqsspulse/internal/devices"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qdmi/qdmitest"
	"mqsspulse/internal/qpi"
	"mqsspulse/internal/testutil"
)

func testStack(t *testing.T) (*Client, *devices.SimDevice) {
	t.Helper()
	testutil.AssertNoLeaks(t)
	dev, err := devices.Superconducting("hpcqc-sc", 2, 31)
	if err != nil {
		t.Fatal(err)
	}
	drv := qdmi.NewDriver()
	if err := drv.RegisterDevice(qdmitest.Wrap(dev)); err != nil {
		t.Fatal(err)
	}
	c := New(drv.OpenSession())
	t.Cleanup(c.Close)
	return c, dev
}

// stackDevice is the test device testStack registers around its simulator.
func stackDevice(c *Client) *qdmitest.Device {
	dev, err := c.session.Device("hpcqc-sc")
	if err != nil {
		panic(err)
	}
	return dev.(*qdmitest.Device)
}

func bell(t *testing.T) *qpi.Circuit {
	t.Helper()
	c := qpi.NewCircuit("bell", 2, 2).H(0).CX(0, 1).Measure(0, 0).Measure(1, 1)
	if err := c.End(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClientRunBell(t *testing.T) {
	c, _ := testStack(t)
	res, err := c.RunCtx(context.Background(), bell(t), "hpcqc-sc", SubmitOptions{Shots: 4000})
	if err != nil {
		t.Fatal(err)
	}
	p00 := res.Probability(0b00)
	p11 := res.Probability(0b11)
	if math.Abs(p00-0.5) > 0.07 || math.Abs(p11-0.5) > 0.07 {
		t.Fatalf("Bell through client: p00=%g p11=%g", p00, p11)
	}
	if res.DurationSeconds <= 0 {
		t.Fatal("schedule duration missing")
	}
}

func TestClientValidation(t *testing.T) {
	c, _ := testStack(t)
	unfinished := qpi.NewCircuit("u", 1, 0).X(0)
	if _, err := c.SubmitCtx(context.Background(), unfinished, "hpcqc-sc", SubmitOptions{Shots: 10}); err == nil {
		t.Fatal("unfinished kernel accepted")
	}
	bad := qpi.NewCircuit("b", 1, 0).X(9)
	_ = bad.End()
	if _, err := c.SubmitCtx(context.Background(), bad, "hpcqc-sc", SubmitOptions{Shots: 10}); err == nil {
		t.Fatal("broken kernel accepted")
	}
	good := bell(t)
	if _, err := c.SubmitCtx(context.Background(), good, "ghost", SubmitOptions{Shots: 10}); err == nil {
		t.Fatal("unknown device accepted")
	}
}

func TestLoweringCache(t *testing.T) {
	c, _ := testStack(t)
	k := bell(t)
	if _, _, err := c.Compile(k, "hpcqc-sc"); err != nil {
		t.Fatal(err)
	}
	if c.CacheStats().Hits != 0 {
		t.Fatal("cold compile counted as hit")
	}
	p1, f1, err := c.Compile(k, "hpcqc-sc")
	if err != nil {
		t.Fatal(err)
	}
	if c.CacheStats().Hits != 1 {
		t.Fatalf("cache hits = %d", c.CacheStats().Hits)
	}
	if f1 != qdmi.FormatQIRPulse || len(p1) == 0 {
		t.Fatalf("cached result wrong: %s %d bytes", f1, len(p1))
	}
}

func TestNativeAdapter(t *testing.T) {
	c, _ := testStack(t)
	backend := &NativeAdapter{Client: c, Target: "hpcqc-sc"}
	if !strings.Contains(backend.Name(), "hpcqc-sc") {
		t.Fatal("adapter name missing target")
	}
	res, err := qpi.Run(context.Background(), backend, bell(t), qpi.WithShots(1000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Shots != 1000 {
		t.Fatalf("shots = %d", res.Shots)
	}
}

const bellProgram = `# Bell pair through the interpreted adapter
circuit bell 2 2
h 0
cx 0 1
measure 0 0
measure 1 1
`

func TestInterpretedAdapterParses(t *testing.T) {
	c, _ := testStack(t)
	a := &InterpretedAdapter{Client: c, Target: "hpcqc-sc"}
	k, err := a.ParseProgram(bellProgram)
	if err != nil {
		t.Fatal(err)
	}
	if k.Name() != "bell" || countKind(k, qpi.OpGate) != 2 || countKind(k, qpi.OpMeasure) != 2 {
		t.Fatalf("parsed kernel wrong: %+v", k)
	}
	res, err := a.ExecuteCtx(context.Background(), bellProgram, SubmitOptions{Shots: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Probability(0b00)-0.5) > 0.08 {
		t.Fatalf("interpreted Bell p00=%g", res.Probability(0b00))
	}
}

func TestInterpretedAdapterPulseProgram(t *testing.T) {
	c, dev := testStack(t)
	a := &InterpretedAdapter{Client: c, Target: "hpcqc-sc"}
	amp := dev.CalibratedPiAmplitude(0)
	var sb strings.Builder
	sb.WriteString("circuit pulsed 1 1\nwaveform w1")
	for i := 0; i < 32; i++ {
		x := float64(i) - 15.5
		v := amp * math.Exp(-x*x/72)
		fmt.Fprintf(&sb, " %.9f,0", v)
	}
	sb.WriteString("\nplay q0-drive w1\nframechange q0-drive 4.9e9 0.1\nmeasure 0 0\n")
	k, err := a.ParseProgram(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if countKind(k, qpi.OpPlayWaveform) != 1 || countKind(k, qpi.OpFrameChange) != 1 {
		t.Fatal("pulse ops lost in interpretation")
	}
}

func TestInterpretedAdapterRejections(t *testing.T) {
	c, _ := testStack(t)
	a := &InterpretedAdapter{Client: c, Target: "hpcqc-sc"}
	bads := []string{
		"",
		"x 0",                         // statement before header
		"circuit c 1 1\nwarp 0",       // unknown statement
		"circuit c 1 1\nx banana",     // bad int
		"circuit c 1 1\nrx 0",         // missing param
		"circuit c 1 1\nwaveform w x", // bad sample
		"circuit c x y",               // bad header
		"circuit c 1 1\nplay p",       // missing waveform
	}
	for i, src := range bads {
		if _, err := a.ParseProgram(src); err == nil {
			t.Errorf("bad program %d accepted", i)
		}
	}
}

func TestRemoteRoundtrip(t *testing.T) {
	c, _ := testStack(t)
	srv, err := NewServer(c, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Compile locally, submit remotely — the Fig. 2 remote path.
	payload, format, err := c.Compile(bell(t), "hpcqc-sc")
	if err != nil {
		t.Fatal(err)
	}
	remote, err := NewRemoteAdapter(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	res, err := remote.SubmitPayloadCtx(context.Background(), "hpcqc-sc", payload, format, SubmitOptions{Shots: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shots != 2000 {
		t.Fatalf("shots = %d", res.Shots)
	}
	if math.Abs(res.Probability(0b00)-0.5) > 0.08 {
		t.Fatalf("remote Bell p00=%g", res.Probability(0b00))
	}
	// Error path: unknown device.
	if _, err := remote.SubmitPayloadCtx(context.Background(), "ghost", payload, format, SubmitOptions{Shots: 10}); err == nil {
		t.Fatal("remote accepted unknown device")
	}
	// Second submission reuses the connection.
	if _, err := remote.SubmitPayloadCtx(context.Background(), "hpcqc-sc", payload, format, SubmitOptions{Shots: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteAdapterClosed(t *testing.T) {
	c, _ := testStack(t)
	srv, err := NewServer(c, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	remote, err := NewRemoteAdapter(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	remote.Close()
	if _, err := remote.SubmitPayloadCtx(context.Background(), "hpcqc-sc", []byte("x"), qdmi.FormatQIRBase, SubmitOptions{Shots: 10}); err == nil {
		t.Fatal("closed adapter accepted submission")
	}
}

// TestNonPositiveShotsFailEverywhere: the default shot count lives in
// qpi.NewExecConfig alone, so a SubmitOptions that asks for zero or fewer
// shots is refused the same way on every path — a local job, a sweep point
// and a remote job all fail qdmi.ErrInvalidArgument.
func TestNonPositiveShotsFailEverywhere(t *testing.T) {
	ctx := context.Background()
	c, _ := testStack(t)
	srv := serveTest(t, c)
	remote, err := NewRemoteAdapter(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	payload, format, err := c.Compile(bell(t), "hpcqc-sc")
	if err != nil {
		t.Fatal(err)
	}
	paths := []struct {
		name string
		run  func(SubmitOptions) error
	}{
		{"local RunCtx", func(opts SubmitOptions) error {
			_, err := c.RunCtx(ctx, bell(t), "hpcqc-sc", opts)
			return err
		}},
		{"RunSweep", func(opts SubmitOptions) error {
			res, err := c.RunSweep(ctx, rabiSweepTemplate(t), "hpcqc-sc", sweepAngles(1), opts)
			if err != nil {
				return err
			}
			return res[0].Err
		}},
		{"remote SubmitPayloadCtx", func(opts SubmitOptions) error {
			_, err := remote.SubmitPayloadCtx(ctx, "hpcqc-sc", payload, format, opts)
			return err
		}},
	}
	for _, p := range paths {
		for _, shots := range []int{0, -1} {
			if err := p.run(SubmitOptions{Shots: shots}); !errors.Is(err, qdmi.ErrInvalidArgument) {
				t.Errorf("%s with %d shots: err = %v, want ErrInvalidArgument", p.name, shots, err)
			}
		}
	}
}

// countKind returns the number of k's ops of the given kind.
func countKind(k *qpi.Circuit, kind qpi.OpKind) int {
	n := 0
	for _, op := range k.Ops() {
		if op.Kind == kind {
			n++
		}
	}
	return n
}
