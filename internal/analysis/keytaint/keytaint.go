// Package keytaint proves the transitive purity of everything that
// feeds a cache key or wire encoding. The determinism analyzer (PR 6)
// rejects *direct* nondeterminism in scoped packages; keytaint closes
// the interprocedural hole: it marks the key-derivation entry points —
// experiment.runKey/specKey and the spec↔wire converters, the wire
// Spec/Result encoders and decoders, the runcache schema/key
// derivation — as purity roots and walks the call graph (same-package
// summaries, cross-package FactStore facts) rejecting any transitive
// reach to
//
//   - wall-clock, environment, randomness, or runtime-state reads;
//   - pointer identity (%p formatting, pointer→uintptr conversion,
//     reflect.Value.Pointer);
//   - map iteration, channel operations, select, or goroutine spawns;
//   - writes to package-level variables, or reads of package-level
//     variables that are reassigned after initialization (init-time
//     element inserts into a never-reassigned registry map are fine);
//   - dynamic dispatch through module-internal interfaces, whose
//     implementations the analysis cannot enumerate.
//
// Diagnostics carry the offending call chain ("specKey → readClock →
// time.Now (wall-clock read)") and are positioned at the root's own
// offending line, so a taint introduced two calls down still annotates
// the key function that absorbs it. A //bpvet:allow on the line where
// taint enters a function cleans that site for every caller — the
// justified deviation is justified once, at its source.
package keytaint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"xorbp/internal/analysis"
)

// Analyzer is the keytaint entry point.
var Analyzer = &analysis.Analyzer{
	Name: "keytaint",
	Doc:  "prove cache-key and wire-encoding purity transitively through the call graph",
	Run:  run,
}

// roots maps a package-path suffix to the FuncKeys of its purity roots:
// every function whose output becomes a cache key, schema version, or
// canonical wire encoding.
var roots = map[string][]string{
	"internal/experiment": {"runKey", "specKey", "specToWire", "specFromWire", "attackSpecFromWire"},
	"internal/wire":       {"(Spec).Encode", "(Spec).Key", "(Result).Encode", "DecodeSpec", "DecodeResult", "SchemaVersion", "typeSig"},
	"internal/runcache":   {"Key", "NewKeyer", "(Keyer).Key", "schemaID", "(Store).Key"},
	"internal/chaos":      {"(FaultPlan).Encode", "DecodePlan"},
}

// rootKeys returns the purity-root FuncKeys for the pass's package.
func rootKeys(path string) map[string]bool {
	for suffix, keys := range roots {
		if strings.HasSuffix(path, suffix) {
			set := make(map[string]bool, len(keys))
			for _, k := range keys {
				set[k] = true
			}
			return set
		}
	}
	return nil
}

func run(pass *analysis.Pass) error {
	w := &walker{pass: pass, reassigned: reassignedGlobals(pass)}
	sum := analysis.NewSummarizer(pass, "keytaint")
	sum.External = externalTaint
	sum.Local = func(decl *ast.FuncDecl) string {
		var first string
		w.walk(decl, sum, func(_ token.Pos, msg string) bool {
			first = msg
			return false
		})
		return first
	}
	w.sum = sum

	isRoot := rootKeys(pass.Path)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			key := analysis.DeclKey(pass.Info, fd)
			if !isRoot[key] {
				continue
			}
			w.walk(fd, sum, func(pos token.Pos, msg string) bool {
				pass.Reportf(pos, "%s must stay cache-key pure but reaches %s", key, msg)
				return true
			})
		}
	}
	sum.Publish()
	return nil
}

// reassignedGlobals finds package-level variables assigned as whole
// variables anywhere outside their declaration. Reading such a variable
// from a purity root is tainted; reading a registry map that is only
// populated element-wise during init and never rebound is not.
func reassignedGlobals(pass *analysis.Pass) map[types.Object]bool {
	out := make(map[types.Object]bool)
	mark := func(e ast.Expr) {
		if id, ok := analysis.Unparen(e).(*ast.Ident); ok {
			if obj := pass.Info.Uses[id]; obj != nil && isGlobalVar(pass, obj) {
				out[obj] = true
			}
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					mark(lhs)
				}
			case *ast.IncDecStmt:
				mark(n.X)
			}
			return true
		})
	}
	return out
}

// isGlobalVar reports whether obj is a package-level variable of the
// package under analysis.
func isGlobalVar(pass *analysis.Pass, obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && v.Pkg() == pass.Pkg && v.Parent() == pass.Pkg.Scope()
}

// externalTaint classifies calls leaving the module: the nondeterminism
// sources a cache key must never touch. Everything else in the standard
// library is trusted pure-enough (strconv, strings, hashing, sorting).
func externalTaint(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return ""
	}
	name := fn.Name()
	fullName := pkg.Name() + "." + name
	switch pkg.Path() {
	case "time":
		switch name {
		case "Now", "Since", "Until":
			return fullName + " (wall-clock read)"
		}
	case "os":
		switch name {
		case "Getenv", "LookupEnv", "Environ", "ExpandEnv", "Hostname",
			"Getpid", "Getppid", "Getuid", "Getgid", "Geteuid",
			"Getwd", "TempDir", "UserCacheDir", "UserConfigDir", "UserHomeDir":
			return fullName + " (environment read)"
		case "Open", "OpenFile", "ReadFile", "ReadDir", "Stat", "Lstat":
			return fullName + " (file-system read)"
		}
	case "math/rand", "math/rand/v2", "crypto/rand":
		return pkg.Path() + "." + name + " (randomness)"
	case "runtime":
		switch name {
		case "NumCPU", "NumGoroutine", "GOMAXPROCS", "Caller", "Callers", "ReadMemStats":
			return fullName + " (runtime-state read)"
		}
	case "reflect":
		switch analysis.FuncKey(fn) {
		case "(Value).Pointer", "(Value).UnsafePointer", "(Value).UnsafeAddr":
			return "reflect." + name + " (pointer identity)"
		}
	case "net", "net/http":
		return fullName + " (network)"
	}
	return ""
}

type walker struct {
	pass       *analysis.Pass
	sum        *analysis.Summarizer
	reassigned map[types.Object]bool
}

// walk inspects one function body, invoking report for every taint
// site with its position and chain description. report returning false
// stops the walk (summary mode keeps only the first site; root mode
// reports all).
func (w *walker) walk(decl *ast.FuncDecl, sum *analysis.Summarizer, report func(token.Pos, string) bool) {
	stop := false
	emit := func(pos token.Pos, msg string) {
		if stop {
			return
		}
		// An allow directive where the taint enters cleans the site for
		// every caller: the deviation is justified at its source.
		if w.pass.Directives.Allowed(w.pass.Fset.Position(pos)) {
			return
		}
		if !report(pos, msg) {
			stop = true
		}
	}
	// Whole-variable assignment targets are reported as writes; exclude
	// them from the reassigned-global read check so one site is not
	// reported twice.
	written := make(map[*ast.Ident]bool)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				if id, ok := analysis.Unparen(lhs).(*ast.Ident); ok {
					written[id] = true
				}
			}
		}
		return true
	})
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if stop {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			w.checkCall(n, sum, emit)
		case *ast.RangeStmt:
			if t := w.pass.Info.Types[n.X].Type; t != nil {
				switch t.Underlying().(type) {
				case *types.Map:
					emit(n.Pos(), "map iteration (nondeterministic order)")
				case *types.Chan:
					emit(n.Pos(), "a channel receive (scheduling-dependent)")
				}
			}
		case *ast.SelectStmt:
			emit(n.Pos(), "select (scheduling-dependent)")
		case *ast.SendStmt:
			emit(n.Pos(), "a channel send (scheduling-dependent)")
		case *ast.GoStmt:
			emit(n.Pos(), "a goroutine spawn (scheduling-dependent)")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				emit(n.Pos(), "a channel receive (scheduling-dependent)")
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if name, ok := w.globalWrite(lhs); ok {
					emit(lhs.Pos(), "a write to package variable "+name)
				}
			}
		case *ast.IncDecStmt:
			if name, ok := w.globalWrite(n.X); ok {
				emit(n.X.Pos(), "a write to package variable "+name)
			}
		case *ast.Ident:
			if obj := w.pass.Info.Uses[n]; obj != nil && !written[n] && w.reassigned[obj] {
				emit(n.Pos(), "package variable "+obj.Name()+", which is reassigned after initialization")
			}
		}
		return true
	})
}

// globalWrite reports whether lhs writes (wholly or element-wise)
// through a package-level variable, returning its name.
func (w *walker) globalWrite(lhs ast.Expr) (string, bool) {
	for {
		switch e := analysis.Unparen(lhs).(type) {
		case *ast.Ident:
			if obj := w.pass.Info.Uses[e]; obj != nil && isGlobalVar(w.pass, obj) {
				return obj.Name(), true
			}
			if obj := w.pass.Info.Defs[e]; obj != nil && isGlobalVar(w.pass, obj) {
				return obj.Name(), true
			}
			return "", false
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		case *ast.SelectorExpr:
			lhs = e.X
		default:
			return "", false
		}
	}
}

func (w *walker) checkCall(call *ast.CallExpr, sum *analysis.Summarizer, emit func(token.Pos, string)) {
	if tv, ok := w.pass.Info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion — tainted only when it launders a pointer into an
		// integer, making the result address-dependent.
		if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Kind() == types.Uintptr && len(call.Args) == 1 {
			if at := w.pass.Info.Types[call.Args[0]].Type; at != nil {
				switch u := at.Underlying().(type) {
				case *types.Pointer:
					emit(call.Pos(), "a pointer-to-uintptr conversion (address-dependent)")
				case *types.Basic:
					if u.Kind() == types.UnsafePointer {
						emit(call.Pos(), "a pointer-to-uintptr conversion (address-dependent)")
					}
				}
			}
		}
		return
	}
	if id, ok := analysis.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := w.pass.Info.Uses[id].(*types.Builtin); isBuiltin {
			return
		}
	}
	fn := analysis.Callee(w.pass.Info, call)
	if fn == nil {
		// Dynamic call. Dispatch through a stdlib-declared interface
		// (hash.Hash, reflect.Type, io.Writer) is trusted — its
		// implementations live outside the module's control and behave
		// like the stdlib functions we already trust. Dispatch through a
		// module-internal interface or a bare func value is opaque:
		// implementations can do anything, so the call is tainted.
		if sel, ok := analysis.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if s, ok := w.pass.Info.Selections[sel]; ok && types.IsInterface(s.Recv()) {
				if ifacePkg, name := ifaceOrigin(s.Recv()); ifacePkg != nil && w.inModule(ifacePkg.Path()) {
					emit(call.Pos(), "a dynamic call through "+name+"."+sel.Sel.Name+" (implementation not statically known)")
				}
				return
			}
		}
		emit(call.Pos(), "a call through a function value (target not statically known)")
		return
	}
	if w.checkPointerVerb(call, fn, emit) {
		return
	}
	var taint string
	if fn.Pkg() != nil && !w.inModule(fn.Pkg().Path()) {
		taint = externalTaint(fn)
	} else {
		taint = sum.Summary(fn)
		if taint != "" {
			taint = analysis.FuncKey(fn) + " → " + taint
		}
	}
	if taint != "" {
		emit(call.Pos(), taint)
	}
}

// checkPointerVerb flags %p in a constant format string passed to a fmt
// formatting function: the rendered address varies run to run.
func (w *walker) checkPointerVerb(call *ast.CallExpr, fn *types.Func, emit func(token.Pos, string)) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != "fmt" || !strings.Contains(fn.Name(), "rintf") && fn.Name() != "Errorf" {
		return false
	}
	for _, a := range call.Args {
		if lit, ok := analysis.Unparen(a).(*ast.BasicLit); ok && lit.Kind == token.STRING && strings.Contains(lit.Value, "%p") {
			emit(a.Pos(), "a %p format verb (renders a pointer address)")
			return true
		}
	}
	return false
}

// ifaceOrigin returns the defining package and name of a (possibly
// named) interface type.
func ifaceOrigin(t types.Type) (*types.Package, string) {
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Pkg(), named.Obj().Name()
	}
	return nil, ""
}

// inModule reports whether path is inside the module under analysis.
func (w *walker) inModule(path string) bool {
	mod := w.pass.Path
	if i := strings.IndexByte(mod, '/'); i >= 0 {
		mod = mod[:i]
	}
	return strings.HasPrefix(path, mod+"/") || path == mod
}
