package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Unitlint polices the boundary between host time (time.Duration,
// nanoseconds) and simulated time (sim.Time/sim.Duration, picoseconds).
// The two are both int64 underneath, so a raw conversion compiles but is a
// silent 1000x unit error; the sanctioned crossings are sim.FromStd and
// (sim.Duration).Std. It also flags bare integer literals passed where
// sim.Time or sim.Duration is expected: `After(5000, fn)` reads as
// "5000 somethings" — scale by a unit constant (100*sim.Nanosecond) so the
// magnitude is auditable. Test files are exempt (fixtures and unit tests
// legitimately poke raw picosecond values).
var Unitlint = &Analyzer{
	Name: "unitlint",
	Doc: "no raw conversions between time.Duration and sim time types, " +
		"no unitless numeric literals where sim.Time/sim.Duration is expected",
	Run: runUnitlint,
}

func runUnitlint(pass *Pass) error {
	if !IsModelPackage(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				return false
			}
			if pass.InTestFile(n.Pos()) {
				return false
			}
			switch n := n.(type) {
			case *ast.CallExpr:
				if tv, ok := pass.Info.Types[n.Fun]; ok && tv.IsType() && len(n.Args) == 1 {
					checkConversion(pass, n, tv.Type)
					return true
				}
				checkBareLiteralArgs(pass, n)
			case *ast.CompositeLit:
				checkCompositeLit(pass, n)
			}
			return true
		})
	}
	return nil
}

func checkConversion(pass *Pass, call *ast.CallExpr, dst types.Type) {
	src := pass.Info.TypeOf(call.Args[0])
	switch {
	case isSimChrono(dst) && isStdDuration(src):
		pass.Reportf(call.Pos(),
			"raw conversion of time.Duration (nanoseconds) to %s (picoseconds): "+
				"use sim.FromStd, which carries the unit change", types.TypeString(dst, nil))
	case isStdDuration(dst) && isSimChrono(src):
		pass.Reportf(call.Pos(),
			"raw conversion of %s (picoseconds) to time.Duration (nanoseconds): "+
				"use the Std method, which carries the unit change", types.TypeString(src, nil))
	}
}

// bareIntLit returns a non-zero integer literal's text, or "".
func bareIntLit(e ast.Expr) string {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.INT || lit.Value == "0" {
		return ""
	}
	return lit.Value
}

func checkBareLiteralArgs(pass *Pass, call *ast.CallExpr) {
	tv, ok := pass.Info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		v := bareIntLit(arg)
		if v == "" {
			continue
		}
		var param types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			param = sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice).Elem()
		case i < sig.Params().Len():
			param = sig.Params().At(i).Type()
		}
		if isSimChrono(param) {
			pass.Reportf(arg.Pos(),
				"bare literal %s passed as %s: scale by a unit constant "+
					"(e.g. %s*sim.Nanosecond) so the magnitude is auditable",
				v, types.TypeString(param, nil), v)
		}
	}
}

func checkCompositeLit(pass *Pass, lit *ast.CompositeLit) {
	t := pass.Info.TypeOf(lit)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Struct); !ok {
		return
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		field := pass.Info.Uses[key]
		if field == nil {
			continue
		}
		if v := bareIntLit(kv.Value); v != "" && isSimChrono(field.Type()) {
			pass.Reportf(kv.Value.Pos(),
				"bare literal %s assigned to %s field %s: scale by a unit constant "+
					"(e.g. %s*sim.Nanosecond)", v, types.TypeString(field.Type(), nil), key.Name, v)
		}
	}
}
