// Package devices is hardware optctl must not model.
package devices

// Rabi is a device's Rabi rate.
const Rabi = 38.1e6
