package client

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qrm"
	"mqsspulse/internal/testutil"
)

// TestWireErrorKindRoundTrip walks wireErrorKinds itself: every row survives
// encode → decode → errors.Is with its sentinel stated once, the deadline
// beats the cancellation it also is, and every exported Err* sentinel of the
// layers whose errors reach the server has a row (an alias such as
// qrm.ErrCancelled shares its target's).
func TestWireErrorKindRoundTrip(t *testing.T) {
	rows := map[string]bool{} // sentinel message → has a row
	for _, k := range wireErrorKinds {
		resp := failure(fmt.Errorf("job 7: %w", k.sentinel))
		if resp.ErrorKind != k.kind {
			t.Errorf("errorKind(%v) = %q, want %q", k.sentinel, resp.ErrorKind, k.kind)
		}
		back := errorFromWire(resp.ErrorKind, resp.Error)
		if !errors.Is(back, k.sentinel) {
			t.Errorf("errorFromWire(%q) = %v, does not match its sentinel", k.kind, back)
		}
		if n := strings.Count(back.Error(), k.sentinel.Error()); n != 1 {
			t.Errorf("errorFromWire(%q) = %q states %q %d times, want once", k.kind, back, k.sentinel, n)
		}
		rows[k.sentinel.Error()] = true
	}
	if kind := errorKind(errors.New("plain")); kind != "" {
		t.Errorf("untyped error got kind %q", kind)
	}
	if got := errorKind(fmt.Errorf("%w: %w", context.DeadlineExceeded, qrm.ErrCancelled)); got != "deadline_exceeded" {
		t.Errorf("a job its deadline cancelled got kind %q, want deadline_exceeded", got)
	}

	decl := map[string]ast.Expr{} // "qrm.ErrOverloaded" → its initialiser
	for _, pkg := range []string{"qrm", "qdmi", "ptemplate"} {
		parsed, err := parser.ParseDir(token.NewFileSet(), "../"+pkg, nil, 0)
		if err != nil || parsed[pkg] == nil {
			t.Fatalf("parsing internal/%s: %v", pkg, err)
		}
		for _, f := range parsed[pkg].Files {
			for _, d := range f.Decls {
				if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					for _, sp := range gd.Specs {
						for i, n := range sp.(*ast.ValueSpec).Names {
							if n.IsExported() && strings.HasPrefix(n.Name, "Err") {
								decl[pkg+"."+n.Name] = sp.(*ast.ValueSpec).Values[i]
							}
						}
					}
				}
			}
		}
	}
	for name, init := range decl {
		for sel, ok := init.(*ast.SelectorExpr); ok; sel, ok = init.(*ast.SelectorExpr) {
			init = decl[sel.X.(*ast.Ident).Name+"."+sel.Sel.Name] // an alias: follow it
		}
		msg, _ := strconv.Unquote(init.(*ast.CallExpr).Args[0].(*ast.BasicLit).Value)
		if !rows[msg] {
			t.Errorf("%s (%q) has no row in wireErrorKinds: it would cross the wire untyped", name, msg)
		}
	}
}

// endlessLine writes a line with no end to w — twice the frame bound, so a
// reader without one runs into the close instead of out of memory.
func endlessLine(w net.Conn) {
	chunk := bytes.Repeat([]byte("x"), 1<<16)
	for n := 0; n < 2*maxFrameBytes; n += len(chunk) {
		if _, err := w.Write(chunk); err != nil {
			return
		}
	}
}

// TestRemoteOversizedFramesAreTyped: a program too large to register is
// refused before it touches the wire and costs the connection nothing; a
// response line past the bound fails the job with ErrTooLarge instead of
// being buffered to its end, and closes that connection. The connection is
// never written again: the next job goes out on a new connection to the
// live server and succeeds.
func TestRemoteOversizedFramesAreTyped(t *testing.T) {
	c, _ := testStack(t)
	srv := serveTest(t, c)
	near, far := net.Pipe()
	// The pool starts on the pipe; any connection it dials is to srv.
	pipe := &recordingConn{Conn: near}
	adapter := newRemoteAdapter(srv.Addr(), pipe)
	defer adapter.Close()
	served := make(chan struct{})
	go func() {
		defer close(served)
		defer far.Close()
		lines := bufio.NewScanner(far)
		for lines.Scan() {
			if strings.Contains(lines.Text(), `"op":"register"`) {
				if _, err := far.Write([]byte("{}\n")); err != nil {
					return
				}
				continue
			}
			endlessLine(far)
			return
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	submit := func(payload []byte) error {
		_, err := adapter.SubmitPayloadCtx(ctx, "dev", payload, qdmi.FormatQIRBase, SubmitOptions{Shots: 1})
		return err
	}
	if err := submit(make([]byte, maxFrameBytes)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized program: err = %v, want ErrTooLarge", err)
	}
	if err := submit([]byte("text")); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized response: err = %v, want ErrTooLarge", err)
	}
	<-served // endlessLine stops writing only when the adapter closed its end
	pipe.take(t)

	payload, format, err := c.Compile(bell(t), "hpcqc-sc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adapter.SubmitPayloadCtx(ctx, "hpcqc-sc", payload, format, SubmitOptions{Shots: 16}); err != nil {
		t.Fatalf("submit after an oversized response: %v", err)
	}
	if ops, _ := pipe.take(t); len(ops) != 0 {
		t.Fatalf("the connection the oversized response broke was written again: %v", ops)
	}
}

// TestServerAnswersOversizedRequest: a request line past the bound gets a
// too_large answer before the server hangs up, not a silent close.
func TestServerAnswersOversizedRequest(t *testing.T) {
	testutil.AssertNoLeaks(t)
	c, _ := testStack(t)
	srv := newServer(c, nil)
	defer srv.cancel()
	near, far := net.Pipe()
	defer near.Close()
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.serve(far)
	}()
	go endlessLine(near)
	line, err := bufio.NewReader(near).ReadBytes('\n')
	if err != nil {
		t.Fatalf("no answer to an oversized request: %v", err)
	}
	var resp remoteResponse
	if err := parseResponse(line, &resp); err != nil {
		t.Fatal(err)
	}
	if err := errorFromWire(resp.ErrorKind, resp.Error); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("answer = %s, want a too_large error", line)
	}
	<-served
}
