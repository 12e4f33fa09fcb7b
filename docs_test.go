package avmem

// Documentation checks, run by the CI docs job (and ordinary go test):
// markdown links in the top-level documents must resolve, every package
// must carry a godoc package comment, the counts README's repository map
// quotes must match the tree, and CHANGES.md entries must stay short.
// They live at the repo root so the repository layout is in reach
// without configuration.

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// mdFiles are the documents the link check covers.
var mdFiles = []string{
	"README.md",
	"DESIGN.md",
	"EXPERIMENTS.md",
	"ROADMAP.md",
	"PAPER.md",
	"CHANGES.md",
}

// mdLink matches inline markdown links [text](target); images share
// the same shape with a leading bang, which the pattern tolerates.
var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// TestMarkdownLinks verifies every relative link in the top-level
// documents points at a file or directory that exists. External
// schemes are skipped — CI must not depend on the network — and pure
// fragment links are out of scope (section anchors move with
// headings; file existence is the bit-rot that actually happens).
func TestMarkdownLinks(t *testing.T) {
	for _, file := range mdFiles {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Errorf("%s: %v", file, err)
			continue
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") ||
				strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			rel := filepath.FromSlash(target)
			if _, err := os.Stat(filepath.Join(filepath.Dir(file), rel)); err != nil {
				t.Errorf("%s: broken link %q: %v", file, m[1], err)
			}
		}
	}
}

// TestPackageComments enforces the documentation bar: every package in
// the module — internal, cmd, examples, and the root — carries a godoc
// package comment. New packages fail here until they say what they are
// for.
func TestPackageComments(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "scripts" || name == "scenarios") {
			return filepath.SkipDir
		}
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, path, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			return nil
		}
		for name, pkg := range pkgs {
			documented := false
			for _, f := range pkg.Files {
				if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
					documented = true
					break
				}
			}
			if !documented {
				t.Errorf("package %s (%s) has no godoc package comment", name, path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// numberWords are the spelled-out counts README uses.
var numberWords = []string{"zero", "one", "two", "three", "four", "five", "six", "seven", "eight",
	"nine", "ten", "eleven", "twelve", "thirteen", "fourteen", "fifteen", "sixteen"}

// TestReadmeMapCounts holds the counts README's repository map quotes to
// the tree: the DESIGN.md section range ("§1–§N") against the numbered
// "## §k" headings, the number of checked-in scenarios ("N checked-in")
// against scenarios/*.json, and the number of example programs ("N
// runnable") against the examples/*/ directories.
func TestReadmeMapCounts(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := len(regexp.MustCompile(`(?m)^## §\d+ `).FindAll(design, -1))
	m := regexp.MustCompile(`\(DESIGN\.md\) — architecture, §1–§(\d+)`).FindSubmatch(readme)
	if m == nil {
		t.Fatal("README.md: repository map no longer quotes DESIGN.md's section range")
	}
	if quoted, _ := strconv.Atoi(string(m[1])); quoted != sections {
		t.Errorf("README.md says DESIGN.md has §1–§%d, DESIGN.md has %d numbered sections", quoted, sections)
	}
	scenarios, err := filepath.Glob("scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	m = regexp.MustCompile(`\(scenarios/\) — (\w+) checked-in`).FindSubmatch(readme)
	if m == nil {
		t.Fatal("README.md: repository map no longer quotes the scenario count")
	}
	if len(scenarios) >= len(numberWords) || string(m[1]) != numberWords[len(scenarios)] {
		t.Errorf("README.md says %s checked-in scenarios, scenarios/ holds %d", m[1], len(scenarios))
	}
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	programs := 0
	for _, e := range entries {
		if e.IsDir() {
			programs++
		}
	}
	m = regexp.MustCompile(`\(examples/\) — (\w+) runnable`).FindSubmatch(readme)
	if m == nil {
		t.Fatal("README.md: repository map no longer quotes the example count")
	}
	if programs >= len(numberWords) || string(m[1]) != numberWords[programs] {
		t.Errorf("README.md says %s runnable examples, examples/ holds %d", m[1], programs)
	}
}

// TestChangesEntrySize keeps CHANGES.md what its README line says it is —
// one line per merged PR: every entry stays under 1 KB (numbers and
// transcripts belong in EXPERIMENTS.md, detail in git history).
func TestChangesEntrySize(t *testing.T) {
	data, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "- PR ") && len(line) >= 1024 {
			t.Errorf("CHANGES.md:%d: the entry starting %q is %d bytes, want under 1024", i+1, line[:12], len(line))
		}
	}
}
