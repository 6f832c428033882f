// Package ctxflow is the ctxflow analyzer fixture.
package ctxflow

import "context"

// Good threads ctx first.
func Good(ctx context.Context, n int) error {
	_ = ctx
	_ = n
	return nil
}

// BadOrder takes ctx after another parameter.
func BadOrder(n int, ctx context.Context) error { // want "context.Context must be the first parameter"
	_ = ctx
	_ = n
	return nil
}

// BadBackground mints a root context inside library code.
func BadBackground() error {
	ctx := context.Background() // want "context.Background\\(\\) in library code"
	_ = ctx
	return nil
}

// BadTODO is no better.
func BadTODO() error {
	ctx := context.TODO() // want "context.TODO\\(\\) in library code"
	_ = ctx
	return nil
}
