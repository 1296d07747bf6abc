//go:build !race

package core

import "testing"

func skipIfRace(t *testing.T) {}
