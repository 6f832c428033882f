// Package trace holds a mutex where the trace has one writer: one the grep
// saw, and one through a renamed import it did not.
package trace

import (
	"sync"
	s "sync"
)

// Timeline has one writer at a time.
type Timeline struct {
	mu sync.Mutex // want "one writer per trace: sync.Mutex in .Timeline"
}

// Add locks through a renamed import.
func (t *Timeline) Add() {
	var mu s.RWMutex // want "one writer per trace: sync.RWMutex in .Timeline.Add"
	mu.Lock()
	t.mu.Lock()
}

// Registry may lock: it is outside the rule's scope.
type Registry struct{ mu sync.Mutex }

//mqss:lockrank 1 // want "one writer per trace: mqss:lockrank in \\."
var rank int
