package experiments

import (
	"testing"

	"mxmap/internal/leaktest"
)

// TestMain fails the package when its tests leave a goroutine of this
// module running. The study the artifact tests share (study) is closed
// first: its session's SMTP fleet serves until then.
func TestMain(m *testing.M) {
	leaktest.Main(m, func() {
		if cachedStudy != nil {
			cachedStudy.Close()
		}
	})
}
