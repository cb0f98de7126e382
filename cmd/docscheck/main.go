// Command docscheck verifies that the repository's documentation does not
// rot: every package or file path named in the given markdown documents
// (README.md, ARCHITECTURE.md, docs/PHYSICS.md and the verify skill by
// default) must exist in the tree. It is the docs step of the CI workflow,
// next to `go vet ./...`.
//
// Usage:
//
//	docscheck [-root dir] [file.md ...]
//
// A reference is any token starting with internal/, cmd/, examples/ or
// docs/; wildcard suffixes ("...", "*", "<name>") are trimmed before the
// existence check. Exit status 1 lists every dangling reference with its
// file and line.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// refPattern matches repository path references in prose: a known top-level
// directory followed by path characters (no hyphens/angle brackets, so
// "internal/ising/<name>" stops at the placeholder).
var refPattern = regexp.MustCompile(`(?:internal|cmd|examples|docs)/[A-Za-z0-9_./]*`)

// defaultDocs are the documents checked when no arguments are given.
var defaultDocs = []string{"README.md", "ARCHITECTURE.md", "docs/PHYSICS.md", ".claude/skills/verify/SKILL.md"}

func main() {
	root := flag.String("root", ".", "repository root the references resolve against")
	flag.Parse()
	docs := flag.Args()
	if len(docs) == 0 {
		docs = defaultDocs
	}
	checked, missing, err := checkDocs(*root, docs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(1)
	}
	for _, m := range missing {
		fmt.Fprintln(os.Stderr, m)
	}
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d dangling reference(s)\n", len(missing))
		os.Exit(1)
	}
	fmt.Printf("docscheck: %d references in %d documents all resolve\n", checked, len(docs))
}

// checkDocs scans the documents and returns the number of references checked
// and a list of "file:line: reference does not exist" findings.
func checkDocs(root string, docs []string) (checked int, missing []string, err error) {
	for _, doc := range docs {
		f, err := os.Open(filepath.Join(root, doc))
		if err != nil {
			return checked, missing, err
		}
		scanner := bufio.NewScanner(f)
		for line := 1; scanner.Scan(); line++ {
			for _, raw := range refPattern.FindAllString(scanner.Text(), -1) {
				ref := normalize(raw)
				if ref == "" {
					continue
				}
				checked++
				if _, statErr := os.Stat(filepath.Join(root, ref)); statErr != nil {
					missing = append(missing, fmt.Sprintf("%s:%d: %q does not exist in the tree", doc, line, ref))
				}
			}
		}
		closeErr := f.Close()
		if err := scanner.Err(); err != nil {
			return checked, missing, fmt.Errorf("reading %s: %w", doc, err)
		}
		if closeErr != nil {
			return checked, missing, closeErr
		}
	}
	return checked, missing, nil
}

// normalize trims the prose around a matched reference: trailing sentence
// punctuation, wildcard suffixes ("internal/ising/...", "cmd/*") and the
// trailing slash of directory mentions.
func normalize(ref string) string {
	ref = strings.TrimRight(ref, ".,;:")
	ref = strings.TrimSuffix(ref, "*")
	return strings.TrimRight(ref, "/")
}
