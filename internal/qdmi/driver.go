package qdmi

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Driver is the QDMI driver entity: the bespoke orchestration layer that
// manages available devices and mediates client requests through sessions
// (paper, Section 5.3). Clients never hold devices directly — they open a
// session and address devices by name.
type Driver struct {
	mu      sync.RWMutex
	devices map[string]Device
	nextSes int
}

// NewDriver creates an empty device registry.
func NewDriver() *Driver {
	return &Driver{devices: map[string]Device{}}
}

// RegisterDevice adds a device to the registry. Duplicate names are
// rejected.
func (d *Driver) RegisterDevice(dev Device) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	name := dev.Name()
	if name == "" {
		return fmt.Errorf("%w: device with empty name", ErrInvalidArgument)
	}
	if _, dup := d.devices[name]; dup {
		return fmt.Errorf("%w: duplicate device %q", ErrInvalidArgument, name)
	}
	d.devices[name] = dev
	return nil
}

// OpenSession allocates a client session over the current device set.
func (d *Driver) OpenSession() *Session {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nextSes++
	return &Session{driver: d, id: d.nextSes}
}

// Session is a client's handle on the driver. All device access flows
// through it, giving the driver a place to enforce allocation and
// access-control policy.
type Session struct {
	driver *Driver
	id     int
	closed atomic.Bool
}

// Device resolves a device by name.
func (s *Session) Device(name string) (Device, error) {
	if s.closed.Load() {
		return nil, fmt.Errorf("%w: session %d is closed", ErrInvalidArgument, s.id)
	}
	s.driver.mu.RLock()
	defer s.driver.mu.RUnlock()
	dev, ok := s.driver.devices[name]
	if !ok {
		return nil, fmt.Errorf("%w: unknown device %q", ErrInvalidArgument, name)
	}
	return dev, nil
}

// Close releases the session. Further calls fail with ErrInvalidArgument.
func (s *Session) Close() { s.closed.Store(true) }
