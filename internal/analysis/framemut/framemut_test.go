package framemut_test

import (
	"path/filepath"
	"testing"

	"tradenet/internal/analysis/analysistest"
	"tradenet/internal/analysis/framemut"
)

func TestFramemut(t *testing.T) {
	analysistest.Run(t, filepath.Join("..", "testdata", "framemut"),
		"tradenet/internal/fixture",
		[]string{"tradenet/internal/netsim", "tradenet/internal/pkt"}, framemut.Analyzer)
}

// TestNetsimExempt checks the package gate: the same stores inside package
// netsim, where frames are constructed, produce no findings (the fixture has
// no want comments, so any finding fails the test).
func TestNetsimExempt(t *testing.T) {
	analysistest.Run(t, filepath.Join("..", "testdata", "framemut_netsim"),
		"tradenet/internal/netsim", nil, framemut.Analyzer)
}
