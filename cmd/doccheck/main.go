// Command doccheck is the documentation linter the CI docs job runs: it
// walks every Markdown file in the repository and fails when a relative
// link points at a file or directory that does not exist, or when
// ARCHITECTURE.md, a README.md or a file under docs/ names a backticked
// test (`TestXxx`) that no _test.go file in the tree defines. External
// links (http, https, mailto) and pure in-page anchors are skipped; a
// relative link's own #fragment is stripped before the target is
// checked.
//
//	go run ./cmd/doccheck            # check the repo rooted at .
//	go run ./cmd/doccheck -root dir  # check another tree
//
// Exit status 1 means at least one broken link or unknown test name,
// with one "file:line: ..." diagnostic per offence on stderr.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// linkPattern matches inline Markdown links [text](target). Reference
// links and autolinks are rare in this repository; inline links are the
// ones that rot.
var linkPattern = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// testRefPattern matches a test function named in a code span.
var testRefPattern = regexp.MustCompile("`(Test[A-Z0-9_][A-Za-z0-9_]*)`")

// skipDirs are trees that hold no documentation of ours.
var skipDirs = map[string]bool{".git": true, "node_modules": true, ".bench_build": true}

// testRef is one backticked test name in a Markdown file.
type testRef struct {
	file string
	line int
	name string
}

func main() {
	root := flag.String("root", ".", "directory tree to check")
	flag.Parse()
	broken, err := checkTree(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
		os.Exit(2)
	}
	for _, b := range broken {
		fmt.Fprintln(os.Stderr, b)
	}
	if len(broken) > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d broken link(s) or unknown test name(s)\n", len(broken))
		os.Exit(1)
	}
	fmt.Println("doccheck: all relative links and test names resolve")
}

// checkTree returns one "file:line: broken link: target" diagnostic per
// unresolvable relative link under root, and one "file:line: no test
// named: TestXxx" per backticked test name that no _test.go file under
// root defines.
func checkTree(root string) ([]string, error) {
	var broken []string
	var refs []testRef
	defined := make(map[string]bool)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if skipDirs[d.Name()] {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), "_test.go") {
			return addTests(defined, path)
		}
		if !strings.HasSuffix(strings.ToLower(d.Name()), ".md") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		checkTests := citesTests(root, path)
		for i, line := range strings.Split(string(data), "\n") {
			if checkTests {
				for _, m := range testRefPattern.FindAllStringSubmatch(line, -1) {
					refs = append(refs, testRef{path, i + 1, m[1]})
				}
			}
			for _, m := range linkPattern.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if !relativeLink(target) {
					continue
				}
				target = strings.SplitN(target, "#", 2)[0]
				if target == "" {
					continue // pure in-page anchor
				}
				resolved := filepath.Join(filepath.Dir(path), filepath.FromSlash(target))
				if _, err := os.Stat(resolved); err != nil {
					broken = append(broken, fmt.Sprintf("%s:%d: broken link: %s", path, i+1, m[1]))
				}
			}
		}
		return nil
	})
	for _, r := range refs {
		if !defined[r.name] {
			broken = append(broken, fmt.Sprintf("%s:%d: no test named: %s", r.file, r.line, r.name))
		}
	}
	return broken, err
}

// citesTests reports whether the test names a Markdown file cites are
// checked: the architecture map, READMEs and docs/. History and planning
// files such as CHANGES.md and ROADMAP.md name deleted or future tests on
// purpose.
func citesTests(root, path string) bool {
	if name := filepath.Base(path); name == "ARCHITECTURE.md" || name == "README.md" {
		return true
	}
	rel, err := filepath.Rel(root, path)
	return err == nil && strings.HasPrefix(filepath.ToSlash(rel), "docs/")
}

// addTests records the test functions a _test.go file defines.
func addTests(defined map[string]bool, path string) error {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	for _, decl := range f.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") {
			defined[fn.Name.Name] = true
		}
	}
	return nil
}

// relativeLink reports whether target is a relative filesystem link (the
// kind this tool can and should verify).
func relativeLink(target string) bool {
	for _, scheme := range []string{"http://", "https://", "mailto:", "ftp://"} {
		if strings.HasPrefix(target, scheme) {
			return false
		}
	}
	// Absolute paths point outside the repository's control.
	return !strings.HasPrefix(target, "/")
}
