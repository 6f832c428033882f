// Package literals builds requests outside the builder: a literal the grep
// saw, and three it did not.
package literals

import (
	"mqsspulse/tools/mqssvet/testdata/src/onlyhere/literals/qrm"
	q "mqsspulse/tools/mqssvet/testdata/src/onlyhere/literals/qrm"
)

// Literal builds one the plain way.
func Literal() qrm.Request {
	return qrm.Request{Shots: 1} // want "one request builder: qrm.Request{} in .Literal"
}

// FieldByField fills a zero value.
func FieldByField() qrm.Request {
	var r qrm.Request // want "one request builder: qrm.Request{} in .FieldByField"
	r.Shots = 1
	return r
}

// Renamed builds one through a renamed import.
func Renamed() *q.Request {
	return &q.Request{} // want "one request builder: qrm.Request{} in .Renamed"
}

// New allocates one.
func New() *qrm.Request {
	return new(qrm.Request) // want "one request builder: qrm.Request{} in .New"
}

// Pointer only names the type, building nothing.
func Pointer() *qrm.Request {
	var r *qrm.Request
	return r
}
