package rt

import (
	"os"
	"testing"
)

// TestMain runs every test of this package — the in-package ones and the
// external rt_test ones share the binary — on poisoned pools: a buffer
// returned to a Runtime's pool is overwritten with 0xA5 bytes, so an engine
// that reads a lease before overwriting it, or touches one after returning
// it, fails the tests' bitwise result checks instead of passing on stale but
// plausible data.
func TestMain(m *testing.M) {
	poisonLeases = true
	os.Exit(m.Run())
}
