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
// core.Deploy, and one that needs a world calls sim's constructor. The same
// walk keeps two deletions deleted: no sync.Pool in internal/server or
// internal/client (state there lives as long as its owner), and no
// AfterFunc(0, …) anywhere (a handler runs in the event that delivered it; a
// trampoline goes through clock.Schedule, which recycles its record).
func TestOneAssembly(t *testing.T) {
	calls := map[string][]string{} // "pkg.Func" → the directory of each site
	var pools, zeroTimers []string // directories naming sync.Pool / calling AfterFunc(0, …)
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
		dir := filepath.ToSlash(filepath.Dir(path))
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					break
				}
				if pkg, ok := sel.X.(*ast.Ident); ok {
					name := pkg.Name + "." + sel.Sel.Name
					calls[name] = append(calls[name], dir)
				}
				if sel.Sel.Name == "AfterFunc" && len(n.Args) == 2 {
					if lit, ok := n.Args[0].(*ast.BasicLit); ok && lit.Value == "0" {
						zeroTimers = append(zeroTimers, dir)
					}
				}
			case *ast.SelectorExpr:
				if pkg, ok := n.X.(*ast.Ident); ok && pkg.Name == "sync" && n.Sel.Name == "Pool" {
					pools = append(pools, dir)
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
	for _, dir := range pools {
		if dir == "internal/server" || dir == "internal/client" {
			t.Errorf("%s declares a sync.Pool: keep the state on its owner, under the owner's lock", dir)
		}
	}
	if len(zeroTimers) > 0 {
		t.Errorf("AfterFunc(0, …) in %v: do the work in the delivering call, or use clock.Schedule for a trampoline", zeroTimers)
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
