package dns

import (
	"testing"

	"mxmap/internal/leaktest"
)

// TestMain fails the package when its tests leave a goroutine of this
// module running: every server, client and transport a test starts is
// the test's to close.
func TestMain(m *testing.M) { leaktest.Main(m) }
