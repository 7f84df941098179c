package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
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

// goFiles lists the non-test .go files under root, skipping testdata.
// Walking "." includes benchmark/, whose go.mod makes it a separate module.
func goFiles(t *testing.T, root string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			files = append(files, filepath.ToSlash(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func parseFile(t *testing.T, path string) *ast.File {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return f
}
