// Package qrm declares the request of the literals fixture.
package qrm

// Request is a job.
type Request struct{ Shots int }
