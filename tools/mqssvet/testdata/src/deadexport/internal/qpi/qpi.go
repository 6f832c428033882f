// Package qpi is the deadexport fixture's internal package.
package qpi

import "container/heap"

// Used is referenced by the root package.
func Used() {}

// Uncalled has no caller.
func Uncalled() {} // want "exported qpi.Uncalled has no non-test reference"

// TestOnly is called from qpi_test.go alone.
func TestOnly() {} // want "exported qpi.TestOnly has no non-test reference"

// Orphan is named only by its own method.
type Orphan struct{} // want "exported qpi.Orphan has no non-test reference"

// Self refers to its receiver, which does not make Orphan live.
func (o Orphan) Self() Orphan { return o } // want "exported qpi.Orphan.Self has no non-test reference"

// Circuit is referenced by the root package.
type Circuit struct{}

// Y has no caller but is allowlisted, as the product QPI's Circuit.Y is.
func (c *Circuit) Y() {}

// Shape is an interface the program declares.
type Shape interface{ Area() float64 }

// Square is converted to Shape by the root package.
type Square struct{}

// Area is called through Shape only.
func (Square) Area() float64 { return 1 }

// Drain pops the smallest element through container/heap.
func Drain(q []int) int {
	h := queue(q)
	heap.Init(&h)
	return heap.Pop(&h).(int)
}

// queue is a heap.Interface: its methods are called by container/heap.
type queue []int

// Len implements heap.Interface.
func (q queue) Len() int { return len(q) }

// Less implements heap.Interface.
func (q queue) Less(i, j int) bool { return q[i] < q[j] }

// Swap implements heap.Interface.
func (q queue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

// Push implements heap.Interface.
func (q *queue) Push(x any) { *q = append(*q, x.(int)) }

// Pop implements heap.Interface.
func (q *queue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}
