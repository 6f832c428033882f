package qpi

import "encoding/json"

// Config is what an Option sets.
type Config struct {
	Shots int
	label string // want "field qpi.Config.label is written and never read"
	trace string // written and never read, but allowlisted
}

// Option tunes a Config.
type Option func(*Config)

// WithLabel only sets a field nothing reads.
func WithLabel(l string) Option { return func(c *Config) { c.label = l } } // want "qpi.WithLabel only sets fields that are never read"

// WithTrace only sets the allowlisted field.
func WithTrace(id string) Option { return func(c *Config) { c.trace = id } }

// Apply builds a Config from options.
func Apply(opts ...Option) int {
	c := Config{Shots: 1}
	for _, o := range opts {
		o(&c)
	}
	return c.Shots
}

// Counter's n is read only by Count, which the root calls through a
// method value.
type Counter struct{ n int }

// NewCounter starts at one.
func NewCounter() *Counter { return &Counter{n: 1} }

// Count reads n.
func (c *Counter) Count() int { return c.n }

// site's fields are read by the map they key.
type site struct{ index, level int }

var seen = map[site]bool{}

// Mark records a site's ground level.
func Mark(i int) { seen[site{index: i, level: 0}] = true }

// Base's ID is promoted into Job, which never names Base.
type Base struct{ ID int }

// Job embeds Base.
type Job struct{ Base }

// NewJob writes the embedded field.
func NewJob() Job { return Job{Base: Base{ID: 1}} }

// frame's Op is read by encoding/json through its tag.
type frame struct {
	Op string `json:"op"`
}

// Encode writes a frame.
func Encode() ([]byte, error) { return json.Marshal(frame{Op: "submit"}) }

// Settings is aliased by the root, whose callers may read Verbose.
type Settings struct{ Verbose bool }

// Defaults writes Verbose.
func Defaults() Settings { return Settings{Verbose: true} }
