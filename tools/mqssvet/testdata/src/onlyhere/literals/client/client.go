// Package client holds the one request builder.
package client

import "mqsspulse/tools/mqssvet/testdata/src/onlyhere/literals/qrm"

// Client builds requests.
type Client struct{}

func (c *Client) enqueue(shots int) qrm.Request { return qrm.Request{Shots: shots} }

// Submit builds through enqueue.
func (c *Client) Submit() qrm.Request { return c.enqueue(1) }
