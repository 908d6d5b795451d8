package deadcode_test

import (
	"path/filepath"
	"testing"

	"tradenet/internal/analysis/analysistest"
	"tradenet/internal/analysis/deadcode"
)

func TestDeadcode(t *testing.T) {
	analysistest.Run(t, filepath.Join("..", "testdata", "deadcode"),
		"tradenet/internal/fixture", []string{"fmt", "sort"}, deadcode.Analyzer)
}
