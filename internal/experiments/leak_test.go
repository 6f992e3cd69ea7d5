package experiments

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"testing"

	"mxmap/internal/leaktest"
)

// TestMain fails the package when its tests leave a goroutine of this
// module running, or leave the directory of the study the artifact
// tests share (study) behind. The study is closed first: its session's
// SMTP fleet serves until then, and its Close removes the directory.
func TestMain(m *testing.M) {
	leaktest.Main(m, func() {
		if cachedStudy == nil {
			return
		}
		cachedStudy.Close()
		if _, err := os.Stat(cachedStudy.dir); !errors.Is(err, fs.ErrNotExist) {
			fmt.Fprintf(os.Stderr, "the shared study's directory %s outlived its Close: %v\n", cachedStudy.dir, err)
			os.Exit(1)
		}
	})
}
