package core

import (
	"testing"

	"mxmap/internal/leaktest"
)

// TestMain fails the package when its tests leave a goroutine of this
// module running: what a test starts is the test's to stop.
func TestMain(m *testing.M) { leaktest.Main(m) }
