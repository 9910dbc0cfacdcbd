// Package surface holds TestSurface, the ruler of the module's exported
// surface. It type-checks every package of the module from source
// (standard library only: go/parser, go/ast, go/types) and renders
// SURFACE.txt at the module root:
//
//   - a counts block, so a change's diff shows old → new counts;
//   - every exported identifier per package, with its receiver and
//     signature, in the format of Go's api/go1.*.txt;
//   - every exported identifier no non-test file references, each with
//     the reason it stays;
//   - the knobs: every Option func, every field of a *Config struct,
//     every command-line flag and every UP2P_* environment variable;
//   - every errs code;
//   - the module's internal import edges.
//
// The test fails when the file differs from what the code produces.
// `go test ./internal/surface -run TestSurface -update` (make surface)
// rewrites it. The package has no non-test code, so it adds nothing to
// the program.
package surface

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/errs"
)

var update = flag.Bool("update", false, "rewrite SURFACE.txt from the code")

// stays names every exported identifier that no non-test file
// references, with the reason it is kept. A name listed here that the
// code does reference, or no longer declares, fails the test too.
var stays = map[string]string{
	"repro/internal/p2p/codec.Types":                 "the p2p and dht fuzz targets enumerate frame types from it",
	"repro/internal/p2p.Network.Unpublish":           "the overlay's withdraw operation and the only sender of the unregister and unstore frames the index server and DHT holders handle; removing it changes the protocols",
	"repro/internal/p2p.CentralizedClient.Unpublish": "implements p2p.Network.Unpublish",
	"repro/internal/p2p.GnutellaNode.Unpublish":      "implements p2p.Network.Unpublish",
	"repro/internal/dht.Node.Unpublish":              "implements p2p.Network.Unpublish",
	"repro/internal/dht.Node.Holds":                  "the replica-placement invariant of the churn tests in internal/sim reads holders through it",
	"repro/internal/transport.MemNetwork.Partition":  "fault hook: tests cut links with it, and protocol-independence checks build on it",
	"repro/internal/transport.MemNetwork.Heal":       "fault hook: undoes Partition in the same tests",
	"repro/internal/transport.WithDropModel":         "fault hook: tests lose one direction of a link with it",
	"repro/internal/query.IndexKeys":                 "the keys IndexKeyHashes hashes, as strings: TestIndexKeyHashes holds the hashes to them, and the index tests build equality filters from them",
}

// testOnlyKnobs names every Option func no non-test file calls and
// every Config field no non-test file sets, with the reason it stays.
// An entry of stays needs no second reason here.
var testOnlyKnobs = map[string]string{
	"repro/internal/sim.Config.Metrics":          "TestGoldenTraceMetricsInert runs one scenario on a live registry and on metrics.Discard() to prove telemetry never moves the trace hash",
	"repro/internal/dht.Config.RecordTTL":        "the DHT golden trace and the expiry tests shorten it so records age out inside a run",
	"repro/internal/dht.Config.MaxRecordsPerKey": "the 5k-peer scale smoke raises it so one community's 2 000 objects fit under one key",
}

// implicit declares the interfaces the standard library calls through
// without the module naming them: fmt's verbs, encoding's and
// encoding/json's codecs, and errors.Is/As/Unwrap.
const implicit = `package implicit

import (
	"encoding"
	"encoding/json"
	"fmt"
)

type (
	stringer        interface{ fmt.Stringer }
	goStringer      interface{ fmt.GoStringer }
	formatter       interface{ fmt.Formatter }
	textMarshaler   interface{ encoding.TextMarshaler }
	textUnmarshaler interface{ encoding.TextUnmarshaler }
	jsonMarshaler   interface{ json.Marshaler }
	jsonUnmarshaler interface{ json.Unmarshaler }
	unwrapper       interface{ Unwrap() error }
	multiUnwrapper  interface{ Unwrap() []error }
	iser            interface{ Is(error) bool }
	aser            interface{ As(any) bool }
)
`

func TestSurface(t *testing.T) {
	root := moduleRoot(t)
	m, err := load(root)
	if err != nil {
		t.Fatal(err)
	}
	text, problems := m.render()
	path := filepath.Join(root, "SURFACE.txt")
	if *update {
		if err := os.WriteFile(path, text, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range problems {
		t.Error(p)
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run make surface)", err)
	}
	if !bytes.Equal(old, text) {
		t.Errorf("SURFACE.txt differs from the code; run make surface and review the diff:\n%s", lineDiff(old, text))
	}
}

func moduleRoot(t *testing.T) string {
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the working directory")
		}
		dir = parent
	}
}

// lineDiff lists the lines only one side has, prefixed - and +.
func lineDiff(old, cur []byte) string {
	count := map[string]int{}
	for _, l := range strings.Split(string(old), "\n") {
		count[l]++
	}
	for _, l := range strings.Split(string(cur), "\n") {
		count[l]--
	}
	var b strings.Builder
	for _, l := range strings.Split(string(old), "\n") {
		if count[l] > 0 {
			count[l]--
			fmt.Fprintf(&b, "-%s\n", l)
		}
	}
	for _, l := range strings.Split(string(cur), "\n") {
		if count[l] < 0 {
			count[l]++
			fmt.Fprintf(&b, "+%s\n", l)
		}
	}
	return b.String()
}

// pkg is one package of the module, type-checked from its non-test
// files.
type pkg struct {
	path  string
	files []*ast.File
	tests []*ast.File
	types *types.Package
	info  *types.Info
}

type module struct {
	path string
	fset *token.FileSet
	pkgs map[string]*pkg
	std  types.ImporterFrom
}

func load(root string) (*module, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	first, _, _ := strings.Cut(string(gomod), "\n")
	m := &module{
		path: strings.TrimSpace(strings.TrimPrefix(first, "module")),
		fset: token.NewFileSet(),
		pkgs: map[string]*pkg{},
	}
	// Type-check the standard library's pure-Go files: the result is
	// the same with or without a C toolchain.
	build.Default.CgoEnabled = false
	m.std = importer.ForCompiler(m.fset, "source", nil).(types.ImporterFrom)

	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		dir := filepath.Dir(path)
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(m.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		ip := m.path
		if rel != "." {
			ip += "/" + filepath.ToSlash(rel)
		}
		p := m.pkgs[ip]
		if p == nil {
			p = &pkg{path: ip}
			m.pkgs[ip] = p
		}
		if strings.HasSuffix(name, "_test.go") {
			p.tests = append(p.tests, f)
		} else {
			p.files = append(p.files, f)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, p := range m.sorted() {
		if _, err := m.check(p); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// sorted returns the packages with non-test files, by import path.
func (m *module) sorted() []*pkg {
	var out []*pkg
	for _, p := range m.pkgs {
		if len(p.files) > 0 {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out
}

func (m *module) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *module) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p := m.pkgs[path]; p != nil && len(p.files) > 0 {
		return m.check(p)
	}
	return m.std.ImportFrom(path, dir, mode)
}

func (m *module) check(p *pkg) (*types.Package, error) {
	if p.types != nil {
		return p.types, nil
	}
	p.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: m}
	tp, err := conf.Check(p.path, m.fset, p.files, p.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", p.path, err)
	}
	p.types = tp
	return tp, nil
}

func (m *module) inModule(obj types.Object) bool {
	return obj.Pkg() != nil && m.pkgs[obj.Pkg().Path()] != nil
}

// origin maps an instantiated generic object back to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// decl is one exported declaration: its api line and the key the
// stays and testOnlyKnobs maps use.
type decl struct {
	obj  types.Object
	key  string
	line string
	api  bool // part of the importable API (not a method or field of an unexported type)
}

func (m *module) render() ([]byte, []string) {
	used, set := m.references()
	var problems []string

	var decls []decl
	for _, p := range m.sorted() {
		if p.types.Name() != "main" {
			decls = append(decls, declsOf(p.types)...)
		}
	}

	var exported, unreferenced []string
	seen := map[string]bool{}
	for _, d := range decls {
		if d.api {
			exported = append(exported, d.line)
		}
		if v, ok := d.obj.(*types.Var); used[d.obj] || ok && v.Embedded() {
			continue
		}
		seen[d.key] = true
		why := stays[d.key]
		if why == "" {
			problems = append(problems, fmt.Sprintf("%s: no non-test file references it; delete it, or give the reason it stays in surface_test.go", d.key))
			why = "?"
		}
		unreferenced = append(unreferenced, d.line+"\n\tstays: "+why)
	}
	for key := range stays {
		if !seen[key] {
			problems = append(problems, fmt.Sprintf("%s: has a stays reason but is referenced or gone; drop the reason", key))
		}
	}

	knobs, kp := m.knobs(decls, used, set)
	problems = append(problems, kp...)
	flags := m.flags()
	env := m.env()
	codes, cp := m.errsCodes()
	problems = append(problems, cp...)
	edges := m.edges()

	var b bytes.Buffer
	b.WriteString("# SURFACE.txt: the module's exported surface, knobs and layering.\n")
	b.WriteString("# Generated by internal/surface (make surface); TestSurface fails when it drifts.\n\n")
	fmt.Fprintf(&b, "counts\n")
	fmt.Fprintf(&b, "\tpackages %d\n", len(m.sorted()))
	fmt.Fprintf(&b, "\texported %d\n", len(exported))
	fmt.Fprintf(&b, "\tunreferenced %d\n", len(unreferenced))
	fmt.Fprintf(&b, "\tknobs %d\n", len(knobs))
	fmt.Fprintf(&b, "\tflags %d\n", len(flags))
	fmt.Fprintf(&b, "\tenv %d\n", len(env))
	fmt.Fprintf(&b, "\terrs_codes %d\n", len(codes))
	fmt.Fprintf(&b, "\timport_edges %d\n", len(edges))
	section(&b, "exported identifiers", exported)
	section(&b, "exported identifiers no non-test file references", unreferenced)
	section(&b, "knobs: Option funcs and *Config fields", knobs)
	section(&b, "flags", flags)
	section(&b, "environment variables", env)
	section(&b, "errs codes", codes)
	section(&b, "internal import edges", edges)
	return b.Bytes(), problems
}

func section(b *bytes.Buffer, title string, lines []string) {
	fmt.Fprintf(b, "\n## %s\n\n", title)
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
}

// references returns the objects any non-test file of the module uses,
// and the struct fields a non-test file sets. A method also counts as
// used when its type satisfies an interface the module converts to and
// the interface's method is used (or belongs to the standard library,
// which calls it).
func (m *module) references() (used, set map[types.Object]bool) {
	used = map[types.Object]bool{}
	set = map[types.Object]bool{}
	ifaces := map[types.Type]bool{}
	addIfaces := func(t types.Type) {
		walkTypes(t, func(t types.Type) {
			if types.IsInterface(t) {
				ifaces[t] = true
			}
		})
	}
	var named []*types.Named
	for _, p := range m.sorted() {
		for _, obj := range p.info.Uses {
			obj = origin(obj)
			used[obj] = true
			if _, isType := obj.(*types.TypeName); !isType {
				addIfaces(obj.Type())
			}
		}
		for _, tv := range p.info.Types {
			addIfaces(tv.Type)
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); ok && !types.IsInterface(n) {
					named = append(named, n)
				}
			}
		}
		for _, f := range p.files {
			markSets(f, p.info, set)
		}
	}
	for _, t := range m.implicitIfaces() {
		ifaces[t] = true
	}
	for _, n := range named {
		for t := range ifaces {
			it := t.Underlying().(*types.Interface)
			if !types.Implements(n, it) && !types.Implements(types.NewPointer(n), it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				im := it.Method(i)
				if m.inModule(im) && !used[im] {
					continue
				}
				obj, _, _ := types.LookupFieldOrMethod(n, true, n.Obj().Pkg(), im.Name())
				if obj != nil {
					used[obj] = true
				}
			}
		}
	}
	return used, set
}

// implicitIfaces type-checks the implicit declarations.
func (m *module) implicitIfaces() []types.Type {
	f, err := parser.ParseFile(m.fset, "implicit.go", implicit, 0)
	if err != nil {
		panic(err)
	}
	conf := types.Config{Importer: m.std}
	tp, err := conf.Check("implicit", m.fset, []*ast.File{f}, nil)
	if err != nil {
		panic(err)
	}
	var out []types.Type
	for _, name := range tp.Scope().Names() {
		out = append(out, tp.Scope().Lookup(name).Type())
	}
	return out
}

// walkTypes calls fn on t and on every type t is built from, stopping
// at named types.
func walkTypes(t types.Type, fn func(types.Type)) {
	fn(t)
	switch t := t.(type) {
	case *types.Pointer:
		walkTypes(t.Elem(), fn)
	case *types.Slice:
		walkTypes(t.Elem(), fn)
	case *types.Array:
		walkTypes(t.Elem(), fn)
	case *types.Map:
		walkTypes(t.Key(), fn)
		walkTypes(t.Elem(), fn)
	case *types.Chan:
		walkTypes(t.Elem(), fn)
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tup.Len(); i++ {
				walkTypes(tup.At(i).Type(), fn)
			}
		}
	}
}

// markSets records the struct fields f sets: keys of composite
// literals, every field of an unkeyed one, fields whose address is
// taken, and left-hand sides of assignments, except an assignment that
// fills in a default (if x.F <= 0 { x.F = 5 }).
func markSets(f *ast.File, info *types.Info, set map[types.Object]bool) {
	fieldOf := func(e ast.Expr) *types.Var {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
				return v.Origin()
			}
		}
		return nil
	}
	defaults := map[ast.Stmt]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		tested := map[*types.Var]bool{}
		ast.Inspect(ifs.Cond, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				if v := fieldOf(e); v != nil {
					tested[v] = true
				}
			}
			return true
		})
		for _, st := range ifs.Body.List {
			if as, ok := st.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && tested[fieldOf(as.Lhs[0])] {
				defaults[as] = true
			}
		}
		return true
	})
	mark := func(e ast.Expr) {
		if v := fieldOf(e); v != nil {
			set[v] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			t := info.Types[n].Type
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for i, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok && info.Uses[id] != nil {
						set[origin(info.Uses[id])] = true
					}
				} else if i < st.NumFields() {
					set[st.Field(i).Origin()] = true
				}
			}
		case *ast.AssignStmt:
			if !defaults[n] {
				for _, l := range n.Lhs {
					mark(l)
				}
			}
		case *ast.IncDecStmt:
			mark(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				mark(n.X)
			}
		}
		return true
	})
}

// declsOf lists a package's exported declarations in api order.
func declsOf(tp *types.Package) []decl {
	q := func(p *types.Package) string {
		if p == tp {
			return ""
		}
		return p.Name()
	}
	ts := func(t types.Type) string { return types.TypeString(t, q) }
	prefix := "pkg " + tp.Path() + ", "
	var out []decl
	add := func(obj types.Object, key, line string, api bool) {
		out = append(out, decl{obj: obj, key: tp.Path() + "." + key, line: prefix + line, api: api})
	}
	scope := tp.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		exported := obj.Exported()
		switch obj := obj.(type) {
		case *types.Const:
			if exported {
				add(obj, name, "const "+name+" "+ts(obj.Type()), true)
			}
		case *types.Var:
			if exported {
				add(obj, name, "var "+name+" "+ts(obj.Type()), true)
			}
		case *types.Func:
			if exported {
				add(obj, name, "func "+name+sigString(obj.Type().(*types.Signature), q), true)
			}
		case *types.TypeName:
			if exported {
				add(obj, name, typeLine(obj, q), true)
			}
			n, ok := obj.Type().(*types.Named)
			if !ok {
				continue
			}
			switch u := n.Underlying().(type) {
			case *types.Struct:
				for i := 0; i < u.NumFields(); i++ {
					f := u.Field(i)
					switch {
					case f.Embedded() && exported:
						add(f, name+"."+f.Name(), "type "+name+" struct, embedded "+ts(f.Type()), true)
					case f.Exported() && !f.Embedded():
						add(f, name+"."+f.Name(), "type "+name+" struct, "+f.Name()+" "+ts(f.Type()), exported)
					}
				}
			case *types.Interface:
				for i := 0; i < u.NumExplicitMethods(); i++ {
					f := u.ExplicitMethod(i)
					if f.Exported() {
						add(f, name+"."+f.Name(), "type "+name+" interface, "+f.Name()+sigString(f.Type().(*types.Signature), q), exported)
					}
				}
			}
			for i := 0; i < n.NumMethods(); i++ {
				f := n.Method(i)
				if !f.Exported() {
					continue
				}
				sig := f.Type().(*types.Signature)
				recv := name
				if _, ptr := sig.Recv().Type().(*types.Pointer); ptr {
					recv = "*" + name
				}
				add(f, name+"."+f.Name(), "method ("+recv+") "+f.Name()+sigString(sig, q), exported)
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].line < out[j].line })
	return out
}

func typeLine(obj *types.TypeName, q types.Qualifier) string {
	head := "type " + obj.Name()
	if obj.IsAlias() {
		return head + " = " + types.TypeString(obj.Type(), q)
	}
	switch u := obj.Type().Underlying().(type) {
	case *types.Struct:
		return head + " struct"
	case *types.Interface:
		var ms []string
		for i := 0; i < u.NumMethods(); i++ {
			ms = append(ms, u.Method(i).Name())
		}
		sort.Strings(ms)
		return head + " interface { " + strings.Join(ms, ", ") + " }"
	default:
		return head + " " + types.TypeString(u, q)
	}
}

// sigString renders a signature without parameter names, as Go's api
// files do.
func sigString(sig *types.Signature, q types.Qualifier) string {
	list := func(tup *types.Tuple, variadic bool) []string {
		var out []string
		for i := 0; i < tup.Len(); i++ {
			t := tup.At(i).Type()
			if variadic && i == tup.Len()-1 {
				out = append(out, "..."+types.TypeString(t.(*types.Slice).Elem(), q))
				continue
			}
			out = append(out, types.TypeString(t, q))
		}
		return out
	}
	s := "(" + strings.Join(list(sig.Params(), sig.Variadic()), ", ") + ")"
	switch res := list(sig.Results(), false); len(res) {
	case 0:
	case 1:
		s += " " + res[0]
	default:
		s += " (" + strings.Join(res, ", ") + ")"
	}
	return s
}

// knobs lists every exported Option func (a func returning a named
// func type whose name ends in Option) and every exported field of an
// exported struct type whose name ends in Config, main packages
// included. One no non-test file calls or sets needs a testOnlyKnobs
// reason.
func (m *module) knobs(decls []decl, used, set map[types.Object]bool) ([]string, []string) {
	var lines, problems []string
	seen := map[string]bool{}
	note := func(key, line string, live bool) {
		if live {
			lines = append(lines, line)
			return
		}
		why := stays[key]
		if why == "" {
			seen[key] = true
			why = testOnlyKnobs[key]
		}
		if why == "" {
			problems = append(problems, fmt.Sprintf("%s: only tests set it; unexport it, or give the reason it stays in surface_test.go", key))
			why = "?"
		}
		lines = append(lines, line+"\n\ttests only: "+why)
	}
	for _, p := range m.sorted() {
		ds := decls
		if p.types.Name() == "main" {
			ds = declsOf(p.types)
		}
		for _, d := range ds {
			if d.obj.Pkg() != p.types {
				continue
			}
			switch obj := d.obj.(type) {
			case *types.Func:
				sig, ok := obj.Type().(*types.Signature)
				if !ok || sig.Recv() != nil || sig.Results().Len() != 1 {
					continue
				}
				res, ok := sig.Results().At(0).Type().(*types.Named)
				if ok && strings.HasSuffix(res.Obj().Name(), "Option") {
					if _, fn := res.Underlying().(*types.Signature); fn {
						note(d.key, "option "+strings.TrimPrefix(d.line, "pkg "), used[obj])
					}
				}
			case *types.Var:
				if !obj.IsField() || obj.Embedded() || !d.api {
					continue
				}
				owner, _, _ := strings.Cut(strings.TrimPrefix(d.key, p.path+"."), ".")
				if strings.HasSuffix(owner, "Config") {
					note(d.key, "config "+strings.TrimPrefix(d.line, "pkg "), set[obj])
				}
			}
		}
	}
	for key := range testOnlyKnobs {
		if !seen[key] {
			problems = append(problems, fmt.Sprintf("%s: has a tests-only reason but a non-test file sets it, or it is gone; drop the reason", key))
		}
	}
	return lines, problems
}

// flagFuncs maps each flag-defining function of package flag to the
// index of its name argument.
var flagFuncs = map[string]int{
	"Bool": 0, "Int": 0, "Int64": 0, "Uint": 0, "Uint64": 0, "String": 0,
	"Float64": 0, "Duration": 0, "Func": 0, "BoolFunc": 0,
	"BoolVar": 1, "IntVar": 1, "Int64Var": 1, "UintVar": 1, "Uint64Var": 1,
	"StringVar": 1, "Float64Var": 1, "DurationVar": 1, "Var": 1, "TextVar": 1,
}

// flags lists every command-line flag a non-test file defines, with
// its package.
func (m *module) flags() []string {
	var out []string
	for _, p := range m.sorted() {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := p.info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "flag" {
					return true
				}
				i, ok := flagFuncs[fn.Name()]
				if !ok || i >= len(call.Args) {
					return true
				}
				if v := p.info.Types[call.Args[i]].Value; v != nil && v.Kind() == constant.String {
					out = append(out, fmt.Sprintf("-%s %s", constant.StringVal(v), p.path))
				}
				return true
			})
		}
	}
	return sortedUnique(out)
}

var envName = regexp.MustCompile(`\bUP2P_[A-Z0-9_]+`)

// env lists every UP2P_* name a string literal of the module mentions,
// with the packages that mention it; "(tests)" marks a package whose
// mention is in test files only.
func (m *module) env() []string {
	where := map[string]map[string]bool{} // name → package → in a non-test file
	scan := func(p *pkg, files []*ast.File, live bool) {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return true
				}
				s, err := strconv.Unquote(lit.Value)
				if err != nil {
					return true
				}
				for _, name := range envName.FindAllString(s, -1) {
					if where[name] == nil {
						where[name] = map[string]bool{}
					}
					where[name][p.path] = where[name][p.path] || live
				}
				return true
			})
		}
	}
	for _, p := range m.pkgs {
		scan(p, p.files, true)
		scan(p, p.tests, false)
	}
	var out []string
	for name, pkgs := range where {
		var ps []string
		for path, live := range pkgs {
			if !live {
				path += " (tests)"
			}
			ps = append(ps, path)
		}
		sort.Strings(ps)
		out = append(out, name+" "+strings.Join(ps, ", "))
	}
	sort.Strings(out)
	return out
}

// errsCodes lists every code a non-test file passes to errs.New or
// errs.Wrap, with the packages that mint it. A code must be
// "package.name" shaped and must not say "error".
func (m *module) errsCodes() ([]string, []string) {
	where := map[string][]string{}
	var problems []string
	for _, p := range m.sorted() {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				var id *ast.Ident
				switch fun := call.Fun.(type) {
				case *ast.SelectorExpr:
					id = fun.Sel
				case *ast.Ident:
					id = fun
				default:
					return true
				}
				fn, ok := p.info.Uses[id].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != m.path+"/internal/errs" || (fn.Name() != "New" && fn.Name() != "Wrap") {
					return true
				}
				v := p.info.Types[call.Args[0]].Value
				if v == nil || v.Kind() != constant.String {
					problems = append(problems, fmt.Sprintf("%s: errs code is not a constant", m.fset.Position(call.Pos())))
					return true
				}
				code := constant.StringVal(v)
				if !errs.ValidCode(code) || strings.Contains(code, "error") {
					problems = append(problems, fmt.Sprintf("%s: errs code %q is not package.name shaped or says error", m.fset.Position(call.Pos()), code))
				}
				where[code] = append(where[code], p.path)
				return true
			})
		}
	}
	var out []string
	for code, pkgs := range where {
		out = append(out, code+" "+strings.Join(sortedUnique(pkgs), ", "))
	}
	sort.Strings(out)
	return out, problems
}

// edges lists the module-internal imports of every package's non-test
// files.
func (m *module) edges() []string {
	var out []string
	for _, p := range m.sorted() {
		for _, imp := range p.types.Imports() {
			if m.pkgs[imp.Path()] != nil {
				out = append(out, p.path+" -> "+imp.Path())
			}
		}
	}
	sort.Strings(out)
	return out
}

func sortedUnique(s []string) []string {
	sort.Strings(s)
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}
