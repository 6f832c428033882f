// Package gates switches over gate names: a case the grep saw, and two it
// did not.
package gates

// SX names the gate.
const SX = "sx"

// Table is the one place allowed to switch over gate names.
func Table(op string) int {
	switch op {
	case "sx":
		return 1
	}
	return 0
}

// Plain is the case the grep saw.
func Plain(op string) bool {
	switch op {
	case "sx": // want "one meaning of a gate: case \"sx\" in .Plain"
		return true
	}
	return false
}

// Listed hides the gate behind another name in the list.
func Listed(op string) bool {
	switch op {
	case "x", "z": // want "one meaning of a gate: case \"z\" in .Listed"
		return true
	}
	return false
}

// Named spells the gate as a constant.
func Named(op string) bool {
	switch op {
	case SX: // want "one meaning of a gate: case \"sx\" in .Named"
		return true
	}
	return false
}
