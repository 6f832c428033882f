package qpi

import "testing"

func TestTestOnly(t *testing.T) { TestOnly() }
