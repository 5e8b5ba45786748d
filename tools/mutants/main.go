// Command mutants shows that the repository's tests can fail. Each
// entry of its catalog (catalog.go) names a file, an exact snippet of
// it, a replacement and the tests that must fail once the snippet is
// replaced. The mutated file reaches the toolchain through
// go test -overlay, so the tree is never edited.
//
// Run it from the module root:
//
//	go run ./tools/mutants                # the whole catalog
//	go run ./tools/mutants -run 'proxy'   # mutants whose name matches
//
// First every snippet must occur exactly once in its file, and every
// target must pass, running at least one test, on the unmutated tree.
// Then each mutant must make its target fail; a mutant that does not
// compile counts as a failure of the catalog, not as a kill. The exit
// status is 1 when any of these does not hold, so a refactor that moves
// a snippet has to carry its mutant along.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"time"
)

// mutant is one catalog entry.
type mutant struct {
	name    string
	file    string // relative to the module root
	snippet string // must occur exactly once in file
	replace string
	pkg     string // the package whose tests must fail, relative to the module root
	run     string // the -run pattern of the tests that must fail
}

func main() {
	filter := flag.String("run", "", "run only the mutants whose name matches this regexp")
	flag.Parse()
	problems, err := run(*filter)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mutants:", err)
		os.Exit(2)
	}
	if problems > 0 {
		os.Exit(1)
	}
}

// run checks the mutants whose name matches filter and returns the
// number of problems found.
func run(filter string) (problems int, err error) {
	re, err := regexp.Compile(filter)
	if err != nil {
		return 0, fmt.Errorf("bad -run pattern: %v", err)
	}
	if _, err := os.Stat("go.mod"); err != nil {
		return 0, fmt.Errorf("run from the module root: %v", err)
	}
	root, err := os.Getwd()
	if err != nil {
		return 0, err
	}
	var selected []mutant
	for _, m := range catalog {
		if re.MatchString(m.name) {
			selected = append(selected, m)
		}
	}
	if len(selected) == 0 {
		return 0, fmt.Errorf("no mutant matches %q", filter)
	}
	tmp, err := os.MkdirTemp("", "mutants")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(tmp)

	start := time.Now()
	defer func() { fmt.Printf("%d problem(s), %.1fs\n", problems, time.Since(start).Seconds()) }()
	// Snippets first: a stale entry is reported without running anything.
	mutated := make([][]byte, len(selected))
	for i, m := range selected {
		src, err := os.ReadFile(filepath.Join(root, m.file))
		if err != nil {
			fmt.Printf("STALE     %-40s %v\n", m.name, err)
			problems++
			continue
		}
		if n := bytes.Count(src, []byte(m.snippet)); n != 1 {
			fmt.Printf("STALE     %-40s snippet occurs %d times in %s, want once\n", m.name, n, m.file)
			problems++
			continue
		}
		mutated[i] = bytes.Replace(src, []byte(m.snippet), []byte(m.replace), 1)
	}
	if problems > 0 {
		return problems, nil
	}

	// Every target passes unmutated, so a failure below is the mutant's.
	baseline := map[[2]string]bool{}
	for _, m := range selected {
		target := [2]string{m.pkg, m.run}
		if baseline[target] {
			continue
		}
		baseline[target] = true
		out, err := goTest(root, "", m)
		switch {
		case err != nil:
			fmt.Printf("RED       %s -run '%s' fails unmutated:\n%s\n", m.pkg, m.run, tail(out))
			problems++
		case strings.Contains(out, "no tests to run"):
			fmt.Printf("EMPTY     %s -run '%s' matches no test\n", m.pkg, m.run)
			problems++
		}
	}
	if problems > 0 {
		return problems, nil
	}

	for i, m := range selected {
		t0 := time.Now()
		overlay, err := writeOverlay(tmp, i, filepath.Join(root, m.file), mutated[i])
		if err != nil {
			return problems, err
		}
		out, err := goTest(root, overlay, m)
		verdict := "killed"
		switch {
		case err == nil:
			verdict = "SURVIVED"
			problems++
		case strings.Contains(out, "[build failed]") || strings.Contains(out, "[setup failed]"):
			verdict = "NO BUILD"
			problems++
		case !strings.Contains(out, "--- FAIL"):
			verdict = "NO FAIL" // go test failed, but no test did
			problems++
		}
		fmt.Printf("%-9s %-40s %s -run '%s' (%.1fs)\n", verdict, m.name, m.pkg, m.run, time.Since(t0).Seconds())
		if verdict == "NO BUILD" || verdict == "NO FAIL" {
			fmt.Println(tail(out))
		}
	}
	return problems, nil
}

// goTest runs m's target, through the overlay file when one is given.
func goTest(root, overlay string, m mutant) (string, error) {
	args := []string{"test", "-count=1", "-timeout=120s", "-run", m.run}
	if overlay != "" {
		args = append(args, "-overlay", overlay)
	}
	args = append(args, "./"+m.pkg)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// writeOverlay writes the mutated source and an overlay file that
// stands it in for path, returning the overlay file's path.
func writeOverlay(dir string, i int, path string, src []byte) (string, error) {
	mutatedPath := filepath.Join(dir, fmt.Sprintf("mutant%d.go", i))
	if err := os.WriteFile(mutatedPath, src, 0o644); err != nil {
		return "", err
	}
	js, err := json.Marshal(map[string]map[string]string{"Replace": {path: mutatedPath}})
	if err != nil {
		return "", err
	}
	overlayPath := filepath.Join(dir, fmt.Sprintf("overlay%d.json", i))
	return overlayPath, os.WriteFile(overlayPath, js, 0o644)
}

// tail returns the last lines of a go test output.
func tail(out string) string {
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) > 15 {
		lines = lines[len(lines)-15:]
	}
	return "    " + strings.Join(lines, "\n    ")
}
