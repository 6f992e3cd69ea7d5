package dataset

import (
	"testing"

	"mxmap/internal/leaktest"
)

// TestMain fails the package when its tests leave a goroutine of this
// module running: a stream pass's decoder and a gzipped commit's
// compressor end before the call that started them returns.
func TestMain(m *testing.M) { leaktest.Main(m) }
