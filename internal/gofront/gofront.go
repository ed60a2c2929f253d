// Package gofront lowers a restricted-but-useful subset of Go into MiniLang,
// so the full Grapple pipeline — points-to summaries, slicing, CFET
// construction, interval encoding, the disk engine, SMT path-condition
// checking — runs unchanged on real Go packages.
//
// The supported subset covers what typestate checking needs: functions and
// methods, structs and pointers, depth-one field access, if/for/switch,
// calls, closures assigned to locals, defer (desugared to exit-edge calls),
// and error returns (modeled as integers so `if err != nil` guards ride the
// engine's SMT path-condition correlation). Everything else is soundly
// over-approximated — havocked to opaque values — and counted in
// Stats.Havocs rather than rejected, so arbitrary Go packages lower without
// errors; see docs/gofront.md for the exact rules.
//
// The lowering is syntax-directed and deterministic: the same input always
// yields byte-identical MiniLang (a requirement of the golden corpus).
// go/types runs in lenient, stdlib-import-free mode as a category oracle of
// last resort; everything load-bearing is resolved from syntax.
package gofront

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/grapple-system/grapple/internal/lang"
)

// Options toggles the precision passes of the lowering. Non-test code passes
// the zero value (everything on); with both set the lowering is the pre-pass
// reference TestAblationIdentity and TestUnloweredBudget compare against.
type Options struct {
	// NoDevirt disables interface devirtualization: interface method calls
	// havoc ("ext-method") instead of resolving against the package's type
	// hierarchy.
	NoDevirt bool
	// NoMHP disables spawn lowering: `go` statements havoc ("go-stmt") and
	// inline the callee body instead of producing MiniLang spawn statements.
	NoMHP bool
}

// Stats reports what the lowering covered and what it over-approximated.
type Stats struct {
	// Functions is the number of Go functions and methods lowered
	// (including lifted closures).
	Functions int
	// Havocs counts constructs that were over-approximated instead of
	// modeled precisely. This is the PhaseStats.Unlowered count.
	Havocs int
	// ByKind breaks Havocs down by construct kind ("ext-call", "range",
	// "go-stmt", ...).
	ByKind map[string]int
	// TypeErrors is how many diagnostics the lenient go/types pass
	// produced (imports are unresolved by design, so nonzero is normal).
	TypeErrors int

	// IfaceCalls counts interface method call sites the devirtualizer
	// examined; the next three partition it by outcome.
	IfaceCalls int
	// IfaceDirect: exactly one live implementation — lowered to a direct
	// call.
	IfaceDirect int
	// IfaceSplit: a small candidate set — lowered to an opaque path-split
	// dispatch over the candidates.
	IfaceSplit int
	// IfaceOpen: unresolvable (no live implementer, too many, or an
	// unlowerable target) — havocked as before.
	IfaceOpen int
}

func (s *Stats) havoc(kind string) {
	s.Havocs++
	if s.ByKind == nil {
		s.ByKind = map[string]int{}
	}
	s.ByKind[kind]++
}

// Result is a lowered Go package.
type Result struct {
	// Prog is the MiniLang program; it resolves and lowers through the
	// standard internal/lang + internal/ir path.
	Prog  *lang.Program
	Stats Stats

	spans []fileSpan
}

type fileSpan struct {
	name      string
	startLine int // first combined line (1-based)
	lines     int
}

// Source renders the lowered program as canonical MiniLang text.
func (r *Result) Source() string { return lang.Format(r.Prog) }

// Locate maps a combined (lang.Pos) line back to (Go file, line), exactly
// like the CLI's multi-file MiniLang locator.
func (r *Result) Locate(line int) (string, int) {
	for i := len(r.spans) - 1; i >= 0; i-- {
		if line >= r.spans[i].startLine {
			return r.spans[i].name, line - r.spans[i].startLine + 1
		}
	}
	if len(r.spans) > 0 {
		return r.spans[0].name, line
	}
	return "", line
}

// PackageFiles lists the non-test .go files of dir, sorted.
func PackageFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		out = append(out, filepath.Join(dir, name))
	}
	sort.Strings(out)
	if len(out) == 0 {
		return nil, fmt.Errorf("gofront: no Go source files in %s", dir)
	}
	return out, nil
}

// LowerPackage parses and lowers every non-test .go file of dir with
// default options (all precision passes on).
func LowerPackage(dir string, rules *Rules) (*Result, error) {
	return LowerPackageWith(dir, rules, Options{})
}

// LowerPackageWith is LowerPackage with explicit options.
func LowerPackageWith(dir string, rules *Rules, opts Options) (*Result, error) {
	files, err := PackageFiles(dir)
	if err != nil {
		return nil, err
	}
	return LowerFilesWith(files, rules, opts)
}

// LowerFiles parses and lowers the given Go files as one package with
// default options.
func LowerFiles(paths []string, rules *Rules) (*Result, error) {
	return LowerFilesWith(paths, rules, Options{})
}

// LowerFilesWith is LowerFiles with explicit options.
func LowerFilesWith(paths []string, rules *Rules, opts Options) (*Result, error) {
	fset := token.NewFileSet()
	named := make([]namedFile, 0, len(paths))
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("gofront: %w", err)
		}
		named = append(named, namedFile{name: path, ast: f})
	}
	return lower(fset, named, rules, opts)
}

// LowerSource lowers a single Go source string (tests, fuzzing) with
// default options.
func LowerSource(src string, rules *Rules) (*Result, error) {
	return LowerSourceWith(src, rules, Options{})
}

// LowerSourceWith is LowerSource with explicit options.
func LowerSourceWith(src string, rules *Rules, opts Options) (*Result, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "input.go", src, parser.SkipObjectResolution)
	if err != nil {
		return nil, fmt.Errorf("gofront: %w", err)
	}
	return lower(fset, []namedFile{{name: "input.go", ast: f}}, rules, opts)
}

type namedFile struct {
	name string
	ast  *ast.File
}

func lower(fset *token.FileSet, files []namedFile, rules *Rules, opts Options) (*Result, error) {
	if rules == nil {
		rules = NewRules()
	}
	res := &Result{Prog: &lang.Program{}}
	p := &pkgLowerer{
		fset:      fset,
		files:     files,
		rules:     rules,
		opts:      opts,
		res:       res,
		spanOf:    map[string]int{},
		localType: map[string]ast.Expr{},
		fields:    map[string]map[string]ast.Expr{},
		methods:   map[typeMethodKey]*funcMeta{},
		funcs:     map[string]*funcMeta{},
		usedNames: map[string]bool{},
	}
	p.buildSpans()
	p.typeCheck()
	p.collect()
	if !opts.NoDevirt {
		p.buildHierarchy()
	}
	for _, nf := range files {
		imp := importsOf(nf.ast)
		for _, d := range nf.ast.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			p.lowerFunc(fd, imp)
		}
	}
	p.emitTypes()
	return res, nil
}

// buildSpans assigns each file a combined-line offset so every lang.Pos maps
// back to a real (file, line) pair.
func (p *pkgLowerer) buildSpans() {
	line := 0
	for _, nf := range p.files {
		tf := p.fset.File(nf.ast.Pos())
		n := 1
		if tf != nil {
			n = tf.LineCount()
		}
		p.res.spans = append(p.res.spans, fileSpan{name: nf.name, startLine: line + 1, lines: n})
		p.spanOf[nf.name] = line
		line += n
	}
}

// typeCheck runs go/types leniently: no importer (imported names resolve to
// invalid types, which is tolerated), errors collected as a count. The
// resulting Info is a category oracle of last resort for expressions the
// syntactic rules cannot classify.
func (p *pkgLowerer) typeCheck() {
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{
		Error:                    func(error) { p.res.Stats.TypeErrors++ },
		FakeImportC:              true,
		DisableUnusedImportCheck: true,
	}
	asts := make([]*ast.File, len(p.files))
	for i, nf := range p.files {
		asts[i] = nf.ast
	}
	pkgName := "p"
	if len(asts) > 0 && asts[0].Name != nil {
		pkgName = asts[0].Name.Name
	}
	// Check never succeeds fully without imports; we only want Info.
	_, _ = conf.Check(pkgName, p.fset, asts, info)
	p.info = info
}

// importsOf maps each file-local package identifier to the canonical package
// name used in rule keys ("os", "errors", "http", "sql", "context").
func importsOf(f *ast.File) map[string]string {
	out := map[string]string{}
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		base := path
		if i := strings.LastIndex(path, "/"); i >= 0 {
			base = path[i+1:]
		}
		name := base
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == "." || name == "_" {
			continue
		}
		out[name] = base
	}
	return out
}

// emitTypes declares every object type the lowering mentioned, sorted, so
// checkers (and readers) can enumerate them.
func (p *pkgLowerer) emitTypes() {
	if len(p.usedObjTypes) == 0 {
		return
	}
	names := make([]string, 0, len(p.usedObjTypes))
	for t := range p.usedObjTypes {
		names = append(names, t)
	}
	sort.Strings(names)
	for _, t := range names {
		p.res.Prog.Types = append(p.res.Prog.Types, &lang.TypeDecl{Name: t})
	}
}
