package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// RelPath is the slash-separated path relative to the module root
	// ("internal/sim"); rule scopes match against it.
	RelPath string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Info    *types.Info
	// Types is the checked package object; the call-graph pass uses it to
	// distinguish package-level state from locals.
	Types *types.Package
	// TypeErrors collects type-check problems without aborting analysis;
	// rules that need type information degrade gracefully when the info
	// for a node is missing.
	TypeErrors []error
}

// loader parses and type-checks packages with only the standard library.
// Module-local imports ("repro/internal/...") are resolved by mapping the
// import path back onto the module directory tree and type-checking that
// directory recursively; everything else (the standard library) goes to
// stdImporter, which type-checks $GOROOT/src signatures-only.
type loader struct {
	root    string
	modPath string
	fset    *token.FileSet
	std     *stdImporter
	byDir   map[string]*Package
	byPath  map[string]*types.Package
	loading map[string]bool
}

func newLoader(root string) *loader {
	fset := token.NewFileSet()
	return &loader{
		root:    root,
		modPath: modulePath(root),
		fset:    fset,
		std:     newStdImporter(fset),
		byDir:   map[string]*Package{},
		byPath:  map[string]*types.Package{},
		loading: map[string]bool{},
	}
}

// stdImporter type-checks standard-library packages from $GOROOT/src with
// IgnoreFuncBodies: the analyzed module only needs the API surface of its
// std imports (exported signatures and types), so skipping every std
// function body cuts the wall-clock cost of a full simlint run severely —
// see docs/LINTING.md for the measured numbers. A package it cannot
// check is recorded in err, and the loader turns that into a load error.
type stdImporter struct {
	fset    *token.FileSet
	pkgs    map[string]*types.Package
	loading map[string]bool
	err     error // the first package that failed to check
}

func newStdImporter(fset *token.FileSet) *stdImporter {
	return &stdImporter{
		fset:    fset,
		pkgs:    map[string]*types.Package{},
		loading: map[string]bool{},
	}
}

// Import implements types.Importer for the standard library.
func (si *stdImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := si.pkgs[path]; ok {
		return p, nil
	}
	if si.loading[path] {
		return nil, fmt.Errorf("lint: std import cycle through %q", path)
	}
	si.loading[path] = true
	defer delete(si.loading, path)

	tpkg, err := si.check(path)
	if tpkg == nil {
		if si.err == nil {
			si.err = fmt.Errorf("lint: std package %q: %v", path, err)
		}
		return nil, err
	}
	si.pkgs[path] = tpkg
	return tpkg, nil
}

// check type-checks one $GOROOT/src package signatures-only. Soft type
// errors (cgo references, build-tag residue) are tolerated; only a wholly
// unparseable package returns nil.
func (si *stdImporter) check(path string) (*types.Package, error) {
	dir := filepath.Join(build.Default.GOROOT, "src", filepath.FromSlash(path))
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		// net/http and friends import vendored golang.org/x packages.
		dir = filepath.Join(build.Default.GOROOT, "src", "vendor", filepath.FromSlash(path))
		if bp, err = build.Default.ImportDir(dir, 0); err != nil {
			return nil, err
		}
	}
	names := append(append([]string{}, bp.GoFiles...), bp.CgoFiles...)
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(si.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{
		Importer:         si,
		IgnoreFuncBodies: true,
		FakeImportC:      true,
		Error:            func(error) {},
	}
	tpkg, err := conf.Check(path, si.fset, files, nil)
	if tpkg == nil {
		return nil, err
	}
	return tpkg, nil
}

// modulePath reads the module path from root/go.mod, defaulting to
// "fixture" so self-contained test corpora work without a go.mod.
func modulePath(root string) string {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "fixture"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return "fixture"
}

// Import implements types.Importer over the module tree + stdlib.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := l.byPath[path]; ok {
		return p, nil
	}
	if rel, ok := l.relOf(path); ok {
		if _, err := l.load(filepath.Join(l.root, filepath.FromSlash(rel))); err != nil {
			return nil, err
		}
		if p, ok := l.byPath[path]; ok {
			return p, nil
		}
		return nil, fmt.Errorf("lint: import %q produced no package", path)
	}
	return l.std.Import(path)
}

// relOf maps a module-local import path to its module-relative directory.
func (l *loader) relOf(importPath string) (string, bool) {
	if importPath == l.modPath {
		return ".", true
	}
	return strings.CutPrefix(importPath, l.modPath+"/")
}

// modulePkg returns the loaded module package with the given import
// path, or nil for a standard-library path.
func (l *loader) modulePkg(importPath string) *Package {
	rel, ok := l.relOf(importPath)
	if !ok {
		return nil
	}
	return l.byDir[filepath.Join(l.root, filepath.FromSlash(rel))]
}

// load parses and type-checks the package in dir (memoized).
func (l *loader) load(dir string) (*Package, error) {
	dir = filepath.Clean(dir)
	if p, ok := l.byDir[dir]; ok {
		return p, nil
	}
	if l.loading[dir] {
		return nil, fmt.Errorf("lint: import cycle through %s", dir)
	}
	l.loading[dir] = true
	defer delete(l.loading, dir)

	rel, err := filepath.Rel(l.root, dir)
	if err != nil {
		return nil, err
	}
	rel = filepath.ToSlash(rel)

	names, err := goSourceFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no non-test Go files in %s", dir)
	}
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	pkg := &Package{
		RelPath: rel,
		Dir:     dir,
		Fset:    l.fset,
		Files:   files,
		Info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Uses:  map[*ast.Ident]types.Object{},
			Defs:  map[*ast.Ident]types.Object{},
		},
	}
	importPath := l.modPath
	if rel != "." {
		importPath = l.modPath + "/" + rel
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, err := conf.Check(importPath, l.fset, files, pkg.Info)
	// Soft type errors were collected through conf.Error; only a nil
	// package (nothing checked at all) or a std import the importer could
	// not check is fatal.
	if tpkg == nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", dir, err)
	}
	if l.std.err != nil {
		return nil, l.std.err
	}
	pkg.Types = tpkg
	l.byPath[importPath] = tpkg
	l.byDir[dir] = pkg
	return pkg, nil
}

// goSourceFiles lists the non-test .go files in dir, sorted.
func goSourceFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// expandPatterns resolves package patterns ("./internal/...", "cmd/simlint")
// to the sorted list of package directories beneath root. Like the go
// tool, the "..." walk skips testdata, vendor, and dot/underscore
// directories.
func expandPatterns(root string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		dir = filepath.Clean(dir)
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		pat = strings.TrimPrefix(filepath.ToSlash(pat), "./")
		if pat == "" {
			continue
		}
		if base, ok := strings.CutSuffix(pat, "/..."); ok || pat == "..." {
			if pat == "..." {
				base = "."
			}
			start := filepath.Join(root, filepath.FromSlash(base))
			err := filepath.WalkDir(start, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != start && (name == "testdata" || name == "vendor" ||
					strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				names, err := goSourceFiles(path)
				if err != nil {
					return err
				}
				if len(names) > 0 {
					add(path)
				}
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("lint: pattern %q: %w", pat, err)
			}
			continue
		}
		dir := filepath.Join(root, filepath.FromSlash(pat))
		if st, err := os.Stat(dir); err != nil || !st.IsDir() {
			return nil, fmt.Errorf("lint: pattern %q does not name a package directory under %s", pat, root)
		}
		add(dir)
	}
	sort.Strings(dirs)
	return dirs, nil
}

// FindModuleRoot walks up from dir to the nearest directory containing a
// go.mod, so simlint can be invoked from anywhere inside the module.
func FindModuleRoot(dir string) (string, error) {
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
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}
