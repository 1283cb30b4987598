package unusedexport_test

import (
	"testing"

	"appfit/internal/lint/linttest"
	"appfit/internal/lint/unusedexport"
)

func TestUnusedexportReports(t *testing.T) {
	linttest.Run(t, "testdata/src/a", unusedexport.Analyzer)
}

// TestUnusedexportCallersAndExemptions loads neg with its second package,
// so the module it sees holds neg.Wrap's caller.
func TestUnusedexportCallersAndExemptions(t *testing.T) {
	linttest.Run(t, "testdata/src/neg/...", unusedexport.Analyzer)
}

func TestUnusedexportWaiver(t *testing.T) {
	linttest.Run(t, "testdata/src/waiver", unusedexport.Analyzer)
}
