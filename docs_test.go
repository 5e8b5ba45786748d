package pubsubcd

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// docPath matches a backtick span that reads as a relative path: two or
// more segments of letters, digits, '_', '.' and '-'.
var docPath = regexp.MustCompile("`([A-Za-z0-9_.-]+(?:/[A-Za-z0-9_.-]+)+/?)`")

// deadPaths returns the repository paths text cites in backticks that
// do not exist under root. A span counts as a repository path when its
// first segment is a directory under root; URL paths, standard-library
// packages and qualified identifiers do not.
func deadPaths(text, root string) []string {
	var dead []string
	for _, m := range docPath.FindAllStringSubmatch(text, -1) {
		p := m[1]
		top, _, _ := strings.Cut(p, "/")
		if fi, err := os.Stat(filepath.Join(root, top)); err != nil || !fi.IsDir() {
			continue
		}
		if _, err := os.Stat(filepath.Join(root, p)); err != nil {
			dead = append(dead, p)
		}
	}
	return dead
}

// TestDocPathsExist: every repository path README.md and DESIGN.md cite
// in backticks exists, so a move or a deletion updates the docs too.
func TestDocPathsExist(t *testing.T) {
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range deadPaths(string(text), ".") {
			t.Errorf("%s cites `%s`, which does not exist", doc, p)
		}
	}
}

// TestDeadPathsReportsMissingFile: a cited file that is not in the
// repository is reported; existing paths, URL paths, standard-library
// packages and spans with spaces are not.
func TestDeadPathsReportsMissingFile(t *testing.T) {
	text := "GD* is in `internal/core/gdstar.go`, matching in `internal/match/match.go` " +
		"and `internal/match`; see `/metrics`, `log/slog`, `cmd/broker -addr` and `telemetry/fleet.Scraper`."
	if got, want := deadPaths(text, "."), []string{"internal/core/gdstar.go"}; !slices.Equal(got, want) {
		t.Errorf("deadPaths = %q, want %q", got, want)
	}
}
