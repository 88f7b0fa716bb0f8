package smartflux_test

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// maxDesignLines bounds DESIGN.md's non-blank lines. The document describes
// the system by layer, each mechanism once, as it is now; what it used to be
// belongs in CHANGES.md, so it has no reason to grow.
const maxDesignLines = 1200

var (
	// designRef matches a reference into DESIGN.md (or DESIGN): § and a
	// section number or range, a quoted heading title, or both. The bare
	// file name names no heading.
	designRef = regexp.MustCompile(`DESIGN(?:\.md)?\s*(?:§\s*(\d+)(?:\s*[–-]\s*(\d+))?)?(?:,?\s+"([^"]{1,80})")?`)
	// repoPath matches a repository path a document names.
	repoPath = regexp.MustCompile(`(?:^|[^\w./-])((?:internal|cmd|examples|workloads)/[\w./-]*)`)
	// wrapped joins a line break, its indentation and a comment marker, so a
	// reference wrapped across lines reads as one.
	wrapped = regexp.MustCompile(`[ \t]*\n[ \t]*(?:(?://|##?)[ \t]*)?`)
)

// designHeadings parses DESIGN.md's "## N. Title" sections and the
// "### Title" headings beneath each.
func designHeadings(t *testing.T) map[string]map[string]bool {
	t.Helper()
	f, err := os.Open("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sections := map[string]map[string]bool{}
	section := regexp.MustCompile(`^## (\d+)\. (.+)$`)
	var cur map[string]bool
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if m := section.FindStringSubmatch(line); m != nil {
			cur = map[string]bool{m[2]: true}
			sections[m[1]] = cur
		} else if title, ok := strings.CutPrefix(line, "### "); ok && cur != nil {
			cur[title] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return sections
}

// referringFiles lists the files whose DESIGN.md references are checked:
// every Go file outside the frozen benchmark, and the documents that point
// into DESIGN.md. CHANGES.md is history and keeps the numbering of its day.
func referringFiles(t *testing.T) []string {
	t.Helper()
	files := []string{"README.md", "EXPERIMENTS.md", "ROADMAP.md", "Makefile"}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestDesignReferencesResolve checks that every DESIGN.md reference names a
// heading DESIGN.md has: a section number, and a title within that section
// (or anywhere, when no number is given).
func TestDesignReferencesResolve(t *testing.T) {
	sections := designHeadings(t)
	if len(sections) == 0 {
		t.Fatal("DESIGN.md has no numbered sections")
	}
	for _, path := range referringFiles(t) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		text := wrapped.ReplaceAllString(string(b), " ")
		for _, m := range designRef.FindAllStringSubmatch(text, -1) {
			num, to, title := m[1], m[2], m[3]
			if num == "" && title == "" {
				continue
			}
			for _, n := range []string{num, to} {
				if n != "" && sections[n] == nil {
					t.Errorf("%s: %q names no DESIGN.md section %s", path, m[0], n)
				}
			}
			if title == "" {
				continue
			}
			found := false
			for n, titles := range sections {
				if (num == "" || n == num) && titles[title] {
					found = true
				}
			}
			if !found {
				t.Errorf("%s: %q names no DESIGN.md heading %q", path, m[0], title)
			}
		}
	}
}

// TestDocumentedPathsExist checks that every repository path DESIGN.md and
// README.md name exists.
func TestDocumentedPathsExist(t *testing.T) {
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range repoPath.FindAllStringSubmatch(string(b), -1) {
			path := strings.TrimRight(m[1], ".")
			if _, err := os.Stat(path); err != nil {
				t.Errorf("%s names %s, which does not exist", doc, path)
			}
		}
	}
}

// TestDesignLength holds DESIGN.md to maxDesignLines non-blank lines.
func TestDesignLength(t *testing.T) {
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range strings.Split(string(b), "\n") {
		if line != "" {
			n++
		}
	}
	if n > maxDesignLines {
		t.Errorf("DESIGN.md has %d non-blank lines, more than %d", n, maxDesignLines)
	}
}
