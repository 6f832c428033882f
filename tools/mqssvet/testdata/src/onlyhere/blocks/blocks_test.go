package blocks

import "testing"

func TestServe(t *testing.T) {
	done := make(chan struct{})
	Serve(done)
	<-done
}

func TestDrainReturns(t *testing.T) {
	ch := make(chan int, 1)
	ch <- 1
	Drain(ch)
}
