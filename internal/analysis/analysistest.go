package analysis

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// This file is the fixture-test harness, modeled on
// golang.org/x/tools/go/analysis/analysistest: fixture packages live under
// testdata (which the go tool ignores), annotate the lines where an analyzer
// must fire with
//
//	// want "regexp"
//
// (several per line allowed), and RunFixture asserts an exact match between
// expectations and post-suppression findings — every want satisfied, no
// finding unexpected. A fixture file with violations but //simlint:allow
// comments and no wants therefore proves the suppression path.

// sharedLoader caches one loader (and its export-data lookups) across all
// fixture tests in the package.
var sharedLoader = sync.OnceValues(func() (*Loader, error) {
	return NewLoader(".")
})

// RunFixture loads dir as a package with the given synthetic import path and
// checks analyzer findings against the fixture's want comments. The import
// path places the fixture in a package class (model, harness, neither), so
// each fixture exercises exactly the scoping rule it documents.
func RunFixture(t *testing.T, a *Analyzer, dir, importPath string) {
	t.Helper()
	loader, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir, importPath)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Run(pkg, []*Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}

	wants, err := collectWants(pkg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if f.Suppressed {
			continue // the suppression path: covered findings don't need wants
		}
		key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		if !wants.match(key, f.Message) {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for key, ws := range wants.byLine {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: no finding matched want %q", key, w.rx)
			}
		}
	}
}

type want struct {
	rx      *regexp.Regexp
	matched bool
}

type wantSet struct {
	byLine map[string][]*want
}

func (ws *wantSet) match(key, message string) bool {
	for _, w := range ws.byLine[key] {
		if !w.matched && w.rx.MatchString(message) {
			w.matched = true
			return true
		}
	}
	return false
}

// collectWants parses `// want "rx" "rx2"` comments from the fixture files.
func collectWants(pkg *Package) (*wantSet, error) {
	ws := &wantSet{byLine: make(map[string][]*want)}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				rest := strings.TrimSpace(strings.TrimPrefix(text, "want"))
				for rest != "" {
					if rest[0] != '"' && rest[0] != '`' {
						return nil, fmt.Errorf("%s: malformed want comment: %s", key, c.Text)
					}
					lit, remainder, err := cutQuoted(rest)
					if err != nil {
						return nil, fmt.Errorf("%s: %v in want comment: %s", key, err, c.Text)
					}
					rx, err := regexp.Compile(lit)
					if err != nil {
						return nil, fmt.Errorf("%s: bad want regexp: %v", key, err)
					}
					ws.byLine[key] = append(ws.byLine[key], &want{rx: rx})
					rest = strings.TrimSpace(remainder)
				}
			}
		}
	}
	return ws, nil
}

// cutQuoted splits a leading Go string literal (interpreted or raw) off s
// and unquotes it.
func cutQuoted(s string) (lit, rest string, err error) {
	quote := s[0]
	for i := 1; i < len(s); i++ {
		switch {
		case quote == '"' && s[i] == '\\':
			i++
		case s[i] == quote:
			lit, err = strconv.Unquote(s[:i+1])
			return lit, s[i+1:], err
		}
	}
	return "", "", fmt.Errorf("unterminated string literal")
}
