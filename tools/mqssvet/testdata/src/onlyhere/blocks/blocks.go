// Package blocks spawns and waits: in a listed function, in one whose named
// test was renamed, and in one no entry lists.
package blocks

import "sync"

// Serve is listed with TestServe.
func Serve(done chan struct{}) {
	go func() { close(done) }()
}

// Drain is listed with TestDrain, which was renamed.
func Drain(ch chan int) { // want "named goroutines and waits: stale table entry: .Drain has no test TestDrain"
	<-ch
}

// Pick receives only in select cases, which do not count.
func Pick(a, b chan int) int {
	select {
	case v := <-a:
		return v
	case <-b:
		return 0
	}
}

// Unlisted waits on a group no entry lists.
func Unlisted(wg *sync.WaitGroup) {
	wg.Wait() // want "named goroutines and waits: blocks in .Unlisted"
}

// Spawn starts a goroutine no entry lists.
func Spawn(f func()) {
	go f() // want "named goroutines and waits: blocks in .Spawn"
}
