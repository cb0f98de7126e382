package main

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"tpuising/internal/ising/backend"
)

func TestNormalize(t *testing.T) {
	cases := map[string]string{
		"internal/ising":        "internal/ising",
		"internal/ising/":       "internal/ising",
		"internal/ising/...":    "internal/ising",
		"cmd/*":                 "cmd",
		"internal/perf),":       "internal/perf)", // ')' inside the token never matches the pattern
		"docs/PHYSICS.md":       "docs/PHYSICS.md",
		"internal/rng.":         "internal/rng",
		"internal/ising/cubic,": "internal/ising/cubic",
	}
	for in, want := range cases {
		if got := normalize(in); got != want {
			t.Errorf("normalize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCheckDocsFindsDanglingReferences(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "internal", "real"), 0o755); err != nil {
		t.Fatal(err)
	}
	doc := "The `internal/real` package exists, but internal/ghost does not.\n" +
		"Run `go doc tpuising/internal/real/...` and see cmd/missing too.\n"
	if err := os.WriteFile(filepath.Join(root, "doc.md"), []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	checked, missing, err := checkDocs(root, []string{"doc.md"})
	if err != nil {
		t.Fatal(err)
	}
	if checked != 4 {
		t.Errorf("checked %d references, want 4", checked)
	}
	if len(missing) != 2 {
		t.Fatalf("missing = %v, want 2 findings", missing)
	}
	for _, want := range []string{"internal/ghost", "cmd/missing"} {
		found := false
		for _, m := range missing {
			if strings.Contains(m, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("findings %v lack %q", missing, want)
		}
	}
}

// TestRepositoryDocsResolve runs the checker against the real repository
// documents, so a dangling reference fails the test suite even before CI's
// dedicated docs step.
func TestRepositoryDocsResolve(t *testing.T) {
	root := filepath.Join("..", "..")
	checked, missing, err := checkDocs(root, defaultDocs)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) > 0 {
		t.Fatalf("dangling documentation references:\n%s", strings.Join(missing, "\n"))
	}
	if checked == 0 {
		t.Fatal("checked no references; the scanner is broken")
	}
}

// backendRowName matches the backend name of a README backend-table row:
// the first code span of the row's first cell.
var backendRowName = regexp.MustCompile("^\\| `([^`]+)`")

// TestReadmeBackendTableMatchesRegistry cross-checks README's backend table
// against the registry: every backend.Names() entry has a row, and every row
// names a registry backend or says it is "Not selected by name".
func TestReadmeBackendTableMatchesRegistry(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	registered := map[string]bool{}
	for _, name := range backend.Names() {
		registered[name] = false
	}
	inSection, rows := false, 0
	scanner := bufio.NewScanner(f)
	for scanner.Scan() {
		line := scanner.Text()
		if strings.HasPrefix(line, "## ") {
			inSection = line == "## Backends"
			continue
		}
		m := backendRowName.FindStringSubmatch(line)
		if !inSection || m == nil {
			continue
		}
		rows++
		if _, ok := registered[m[1]]; ok {
			registered[m[1]] = true
		} else if !strings.Contains(line, "Not selected by name") {
			t.Errorf("README backend row %q is not a registry backend and does not say \"Not selected by name\"", m[1])
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	if rows == 0 {
		t.Fatal("found no backend table under \"## Backends\" in README.md")
	}
	for name, documented := range registered {
		if !documented {
			t.Errorf("registry backend %q has no row in README's backend table", name)
		}
	}
}
