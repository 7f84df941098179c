package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestOneAssembly keeps the cluster builder single. It parses the root
// module's non-test, non-example Go and fails if a server is constructed
// anywhere but internal/core, a client anywhere but internal/core and
// cmd/vod-client, or a virtual clock is paired with a simulated network at
// more than one place in internal/sim: a harness that needs a cluster calls
// core.Deploy, and one that needs a world calls sim's constructor.
func TestOneAssembly(t *testing.T) {
	calls := map[string][]string{} // "pkg.Func" → sites, as dir:line
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || path == "examples" || path == "testdata" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok {
					name := pkg.Name + "." + sel.Sel.Name
					calls[name] = append(calls[name], filepath.ToSlash(filepath.Dir(path)))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, rule := range []struct {
		call string
		want []string // the directories allowed to make it, one call each
	}{
		{"server.New", []string{"internal/core"}},
		{"client.New", []string{"cmd/vod-client", "internal/core"}},
	} {
		got := calls[rule.call]
		slices.Sort(got)
		if !slices.Equal(got, rule.want) {
			t.Errorf("%s is called in %v, want exactly %v: build clusters with core.Deploy", rule.call, got, rule.want)
		}
	}
	inSim := func(call string) (n int) {
		for _, dir := range calls[call] {
			if dir == "internal/sim" {
				n++
			}
		}
		return n
	}
	if c, n := inSim("clock.NewVirtual"), inSim("netsim.New"); c != 1 || n != 1 {
		t.Errorf("internal/sim makes %d virtual clocks and %d simulated networks, want one of each (newWorld)", c, n)
	}
}
