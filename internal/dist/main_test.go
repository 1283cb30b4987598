package dist

import (
	"os"
	"testing"
)

// TestMain runs every test of this package — the in-package ones and the
// external dist_test ones share the binary — on a poisoned World pool: a
// payload handed back by its receive, a staging buffer returned at Shutdown
// and every engine lease of every rank is overwritten with 0xA5 bytes, so a
// payload read after its return, delivered twice, or leased without its copy
// fails the collectives' bitwise result checks instead of passing on stale
// but plausible data.
func TestMain(m *testing.M) {
	pool.Poison()
	os.Exit(m.Run())
}
