package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one type-checked package ready for analysis. Test files
// (*_test.go in the same package) are type-checked together with the
// package proper, so the analyzers see test code too.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of the enclosing module. Imports —
// both standard library and intra-module — are satisfied from compiler
// export data located with `go list -export`, which works offline against
// the local build cache; only the package under analysis itself is
// type-checked from source. This is the same shape as the go command's vet
// driver, rebuilt on the standard library.
type Loader struct {
	ModuleDir string

	fset *token.FileSet
	imp  types.Importer

	mu      sync.Mutex
	exports map[string]string // import path -> export data file
}

// NewLoader returns a loader rooted at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	root, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	l := &Loader{
		ModuleDir: root,
		fset:      token.NewFileSet(),
		exports:   make(map[string]string),
	}
	l.imp = importer.ForCompiler(l.fset, "gc", l.lookup)
	return l, nil
}

func findModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod at or above %s", dir)
		}
		dir = parent
	}
}

func (l *Loader) golist(args ...string) ([]byte, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = l.ModuleDir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return stdout.Bytes(), nil
}

// lookup locates export data for an import path, for the gc importer.
func (l *Loader) lookup(path string) (io.ReadCloser, error) {
	l.mu.Lock()
	file, ok := l.exports[path]
	l.mu.Unlock()
	if !ok {
		out, err := l.golist("-export", "-f", "{{.ImportPath}}={{.Export}}", path)
		if err != nil {
			return nil, err
		}
		l.addExports(out)
		l.mu.Lock()
		file, ok = l.exports[path]
		l.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
	}
	return os.Open(file)
}

func (l *Loader) addExports(listOutput []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range strings.Split(string(listOutput), "\n") {
		path, file, ok := strings.Cut(strings.TrimSpace(line), "=")
		if !ok || file == "" {
			continue // no export data
		}
		l.exports[path] = file
	}
}

// prefetchExports fills the export cache for the patterns' full dependency
// graph (including test dependencies) in one go command invocation,
// compiling anything stale as a side effect.
func (l *Loader) prefetchExports(patterns []string) error {
	args := append([]string{"-deps", "-test", "-export", "-f", "{{.ImportPath}}={{.Export}}"}, patterns...)
	out, err := l.golist(args...)
	if err != nil {
		return err
	}
	l.addExports(out)
	return nil
}

// listPkg is the subset of `go list -json` output the loader needs.
type listPkg struct {
	ImportPath   string
	Dir          string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
}

// Load type-checks every package matching the patterns (default ./...),
// including in-package and external test files.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	if err := l.prefetchExports(patterns); err != nil {
		return nil, err
	}
	out, err := l.golist(append([]string{"-json"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listPkg
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		files := make([]string, 0, len(lp.GoFiles)+len(lp.TestGoFiles))
		for _, f := range append(append([]string{}, lp.GoFiles...), lp.TestGoFiles...) {
			files = append(files, filepath.Join(lp.Dir, f))
		}
		if len(files) > 0 {
			pkg, err := l.check(l.imp, lp.ImportPath, files)
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, pkg)
		}
		// External test packages (package foo_test) are separate compilation
		// units. As under go test, they import the package under test, and
		// whatever imports it, in the test variants built with its in-package
		// test files (so an export_test.go hook is visible).
		if len(lp.XTestGoFiles) > 0 {
			var xfiles []string
			for _, f := range lp.XTestGoFiles {
				xfiles = append(xfiles, filepath.Join(lp.Dir, f))
			}
			variant := " [" + lp.ImportPath + ".test]"
			imp := importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
				l.mu.Lock()
				file, ok := l.exports[path+variant]
				l.mu.Unlock()
				if ok {
					return os.Open(file)
				}
				return l.lookup(path)
			})
			pkg, err := l.check(imp, lp.ImportPath+"_test", xfiles)
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// LoadDir type-checks the .go files of a single directory as one package
// under the given synthetic import path. It is how fixture packages under
// testdata (which the go tool ignores) are loaded: the import path decides
// which rules apply, so fixtures place themselves in the package class they
// exercise.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no .go files in %s", dir)
	}
	sort.Strings(files)
	return l.check(l.imp, importPath, files)
}

// check parses and type-checks one package from source files, resolving its
// imports with imp.
func (l *Loader) check(imp types.Importer, importPath string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var typeErrs []string
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			typeErrs = append(typeErrs, err.Error())
		},
	}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("analysis: type errors in %s:\n  %s", importPath, strings.Join(typeErrs, "\n  "))
	}
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", importPath, err)
	}
	return &Package{
		Path:  importPath,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}
