package repro

import (
	"go/ast"
	"strings"
	"testing"
)

// TestLockedCallsHoldTheLock keeps the naming rule the mutex-guarded code
// leans on: a function whose name ends in "Locked" runs with its owner's
// mutex held, so every call to one is made from a "…Locked" or "…AndUnlock"
// function, or after a Lock() earlier in the same function body (function
// literals included). It reads the non-test files of the repository.
func TestLockedCallsHoldTheLock(t *testing.T) {
	calls := 0
	for _, path := range goFiles(t, ".") {
		f := parseFile(t, path)
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if strings.HasSuffix(fn.Name.Name, "Locked") || strings.HasSuffix(fn.Name.Name, "AndUnlock") {
				continue
			}
			var locked bool // a Lock() came earlier in the body
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch name := calleeName(call); {
				case name == "Lock":
					locked = true
				case strings.HasSuffix(name, "Locked"):
					calls++
					if !locked {
						t.Errorf("%s: %s calls %s without holding a lock: take it first, or name the caller …Locked", path, fn.Name.Name, name)
					}
				}
				return true
			})
		}
	}
	if calls == 0 {
		t.Fatal("found no call to a …Locked function outside one: the scan reads nothing")
	}
}

// calleeName is the name a call expression calls: f() or x.f().
func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}
