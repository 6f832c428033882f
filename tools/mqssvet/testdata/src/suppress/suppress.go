// Package suppress pins the //lint:mqssvet suppression contract: a
// disable comment on the diagnostic's line or the line above silences
// exactly the named analyzers.
package suppress

import "context"

// Tuned detaches deliberately; the suppression keeps mqssvet quiet.
func Tuned() error {
	//lint:mqssvet disable=ctxflow fixture: deliberate detach
	ctx := context.Background()
	_ = ctx
	return nil
}

// WrongName suppresses a different analyzer, so the finding survives.
func WrongName() error {
	//lint:mqssvet disable=nodrift fixture: mismatched name
	ctx := context.Background() // want "context.Background\\(\\) in library code"
	_ = ctx
	return nil
}

// Untuned has no suppression at all.
func Untuned() error {
	ctx := context.Background() // want "context.Background\\(\\) in library code"
	_ = ctx
	return nil
}

// Stale names an analyzer the suite no longer has: the suppression itself
// is reported, and it silences nothing.
func Stale() error {
	//lint:mqssvet disable=goleak fixture: deleted analyzer // want "stale suppression: no analyzer named \"goleak\""
	ctx := context.Background() // want "context.Background\\(\\) in library code"
	_ = ctx
	return nil
}

// StaleInList keeps the valid half of a list and reports the stale half.
func StaleInList() error {
	//lint:mqssvet disable=ctxcancel,ctxflow fixture: one deleted name // want "stale suppression: no analyzer named \"ctxcancel\""
	ctx := context.Background()
	_ = ctx
	return nil
}

// Fixed shows an onlyhere finding survives both inline forms: its exception
// belongs in the rule table.
func Fixed(ch chan int) {
	//lint:mqssvet disable=onlyhere fixture: not an exception
	go close(ch) // want "no goroutines here: blocks in .Fixed"
	<-ch         //lint:mqssvet disable=all fixture: not an exception either // want "no goroutines here: blocks in .Fixed"
}
