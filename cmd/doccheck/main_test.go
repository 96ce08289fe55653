package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCheckTree(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "docs", "API.md"), "see [spec](../SPEC.md) and [anchor](#local) and [web](https://example.com)")
	write(t, filepath.Join(dir, "SPEC.md"), "see [api](docs/API.md#jobs) and [dir](docs) and [gone](missing.md)")
	write(t, filepath.Join(dir, "notes.txt"), "[not markdown](nowhere.md)")

	broken, err := checkTree(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(broken) != 1 {
		t.Fatalf("broken = %v, want exactly the missing.md link", broken)
	}
	if !strings.Contains(broken[0], "SPEC.md:1") || !strings.Contains(broken[0], "missing.md") {
		t.Fatalf("diagnostic %q missing file/line/target", broken[0])
	}
}

func TestCheckTreeFragmentsAndSchemes(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "README.md"),
		"[a](#only-anchor) [b](mailto:x@y.z) [c](/etc/passwd) [d](sub/ok.md#sec)")
	write(t, filepath.Join(dir, "sub", "ok.md"), "fine")
	broken, err := checkTree(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(broken) != 0 {
		t.Fatalf("broken = %v, want none", broken)
	}
}

func TestRepoDocsResolve(t *testing.T) {
	// The tool gates this repository's own docs in CI; keep the tree
	// clean from inside the test suite too.
	broken, err := checkTree("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(broken) > 0 {
		t.Errorf("repository has broken relative Markdown links or unknown test names:\n%s", strings.Join(broken, "\n"))
	}
}

func TestCheckTreeTestNames(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "pkg", "a_test.go"), "package pkg\n\n"+
		"import \"testing\"\n\n"+
		"func TestReal(t *testing.T) {}\n\n"+
		"type s struct{}\n\n"+
		"func (s) TestMethod() {}\n")
	write(t, filepath.Join(dir, "ARCHITECTURE.md"), "pinned by `TestReal`\nand by `TestGone`\nand by `TestMethod`")
	write(t, filepath.Join(dir, "docs", "API.md"), "see `TestReal` and `Testing` and `TestAlsoGone`")
	write(t, filepath.Join(dir, "CHANGES.md"), "deleted `TestGone`")
	broken, err := checkTree(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		filepath.Join(dir, "ARCHITECTURE.md") + ":2: no test named: TestGone",
		filepath.Join(dir, "ARCHITECTURE.md") + ":3: no test named: TestMethod",
		filepath.Join(dir, "docs", "API.md") + ":1: no test named: TestAlsoGone",
	}
	if strings.Join(broken, "\n") != strings.Join(want, "\n") {
		t.Fatalf("broken =\n%s\nwant\n%s", strings.Join(broken, "\n"), strings.Join(want, "\n"))
	}
}
