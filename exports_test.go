package repro

import (
	"bytes"
	"encoding/json"
	"errors"
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
	"testing"
)

// exportAllowlist names the exported identifiers in internal/ that no
// non-test code outside their own package uses, each with the reason it
// stays exported. TestExportedNamesAreUsed fails on an unused name missing
// here and on an entry that is used again or gone.
var exportAllowlist = map[string]string{
	"buffer.InsertResult":        "type returned by Pipeline.Insert, which client calls",
	"buffer.Buffered":            "member of the exported enum InsertResult",
	"buffer.LateDiscarded":       "member of the exported enum InsertResult",
	"chaos.Execute":              "chaos replay API: runs one drawn plan alone; chaos_test drives it",
	"chaos.NewPlan":              "chaos replay API: draws a seed's plan; chaos_test drives it",
	"chaos.Kind":                 "type of Op.Kind, reached through Report.Plan",
	"chaos.Op":                   "element type of Plan.Ops, reached through Report.Plan",
	"chaos.Plan":                 "type of Report.Plan, which cmd/vodbench prints",
	"chaos.KindAdd":              "member of the exported enum Kind",
	"chaos.KindCrash":            "member of the exported enum Kind",
	"chaos.KindCrashServing":     "member of the exported enum Kind",
	"chaos.KindHeal":             "member of the exported enum Kind",
	"chaos.KindLinkFlap":         "member of the exported enum Kind",
	"chaos.KindLossBurst":        "member of the exported enum Kind",
	"chaos.KindPartition":        "member of the exported enum Kind",
	"chaos.KindPause":            "member of the exported enum Kind",
	"chaos.KindRestart":          "member of the exported enum Kind",
	"chaos.KindSeek":             "member of the exported enum Kind",
	"client.StateIdle":           "member of the exported enum State",
	"client.StateOpening":        "member of the exported enum State",
	"client.StateStopped":        "member of the exported enum State",
	"congress.Directory":         "type returned by NewDirectory, which examples/discovery calls",
	"core.Server":                "type in the signatures of Deployment.Server and EachServer",
	"gcs.ErrAlreadyJoined":       "error sentinel returned by Join",
	"gcs.ErrClosed":              "error sentinel returned by a closed Process or Member",
	"gcs.ViewID":                 "type of View.ID, which server reads",
	"metrics.Series.MeanBetween": "accessor the sim tests and root benchmarks read",
	"metrics.Series.MinBetween":  "accessor the sim tests and root benchmarks read",
	"mpeg.FrameInfo":             "type returned by Movie.Frame",
	"mpeg.Movie.TotalBytes":      "accessor the fetch and store tests read",
	"obs.Event":                  "element type of Snapshot.Events, the text -stats and /debug/vod print",
	"obs.Record":                 "element type of Snapshot.Records; callers write one through Registry.Emit",
	"obs.Snapshot":               "type returned by Registry.Snapshot, which cmd/vodbench and sim read",
	"sim.ClassOutcome":           "type of the OverloadResult fields chaos reads",
	"sim.Signals":                "type of Scenario.Record",
	"sim.Combined":               "member of the exported enum Signals",
	"sim.HW":                     "member of the exported enum Signals",
	"sim.Late":                   "member of the exported enum Signals",
	"sim.Overflow":               "member of the exported enum Signals",
	"sim.SW":                     "member of the exported enum Signals",
	"sim.Serving":                "member of the exported enum Signals",
	"sim.Skipped":                "member of the exported enum Signals",
	"sim.Video":                  "member of the exported enum Signals",
	"sim.EventTimesLAN":          "accessor the root benchmarks read",
	"sim.Throughput":             "type returned by MeasureThroughput",
	"store.Catalog.SaveTo":       "writer of the -moviedir format that cmd/vod-server's flag help names; its test uses it",
	"store.ErrNotFound":          "error sentinel returned by Catalog.Get",
	"store.MovieFileExt":         "accessor cmd/vod-server's test names movie files with",
	"sweep.Func":                 "type in the signature of RunOpts",
	"tiger.Receiver":             "type returned by NewReceiver, which sim calls",
	"tiger.Service":              "type returned by New, which sim calls",
	"transport.ChannelID":        "type of the Channel* constants and of Mux.Channel's argument",
	"wire.ErrTrailing":           "error sentinel returned by the decoders",
	"wire.ErrTruncated":          "error sentinel returned by the decoders",
	"wire.KindFrame":             "member of the exported enum Kind",
	"wire.Message":               "interface type returned by Decode",
}

// TestExportedNamesAreUsed keeps the exported surface of internal/ to what
// the system uses. It type-checks the non-test files of every package of
// the root module and of benchmark/, which is a module of its own (so not
// in ./...), and lists the exported top-level types, funcs, vars and consts
// of internal/ and the exported methods of its exported types.
//
// A package-level name is used when non-test code outside its package
// refers to it. A method is used when non-test code outside its package
// selects it, or when its receiver type (or a pointer to it) implements a
// named interface that declares the method: fmt.Stringer, error,
// http.Handler, transport.Endpoint and the like, declared in a checked
// package or in a package one of them imports.
//
// The standard library is read from the export data `go list -export`
// leaves in the build cache, so the test needs a build and is skipped
// under -short.
func TestExportedNamesAreUsed(t *testing.T) {
	if testing.Short() {
		t.Skip("builds both modules through go list -export")
	}
	pkgs := typeCheck(t, listPackages(t, "."), listPackages(t, "benchmark"))

	decls := exportedDecls(pkgs)
	used := usedObjects(pkgs)
	ifaces := namedInterfaces(pkgs)
	var unused []string
	for key, obj := range decls {
		if implementsInterface(obj, ifaces) {
			used[obj] = true
		}
		if !used[obj] {
			unused = append(unused, key)
		}
	}
	sort.Strings(unused)
	for _, key := range unused {
		if _, ok := exportAllowlist[key]; !ok {
			t.Errorf("%s is exported but no non-test code outside %s uses it: delete it, unexport it, or add it to exportAllowlist with the reason it stays", key, decls[key].Pkg().Path())
		}
	}
	for key := range exportAllowlist {
		obj, ok := decls[key]
		switch {
		case !ok:
			t.Errorf("exportAllowlist names %s, which is no longer an exported name in internal/: drop the entry", key)
		case used[obj]:
			t.Errorf("exportAllowlist names %s, which non-test code outside %s now uses: drop the entry", key, obj.Pkg().Path())
		}
	}
	t.Logf("%d exported names in internal/, %d unused outside their package", len(decls), len(unused))
}

// listedPackage is the part of `go list -json` output the test reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

// listPackages runs `go list -export -deps` over every package of the
// module in dir. Dependencies come before the packages that import them.
func listPackages(t *testing.T, dir string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Dir,GoFiles,Export,Standard", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			return pkgs
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
}

// typeCheck type-checks, from source, each non-standard package the
// listings name, in dependency order, so that every package sees the same
// objects for the repository's own packages. Standard-library imports are
// read from their export data.
func typeCheck(t *testing.T, listings ...[]listedPackage) map[*types.Package]*types.Info {
	t.Helper()
	fset := token.NewFileSet()
	exports := make(map[string]string)
	for _, list := range listings {
		for _, p := range list {
			if p.Standard {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, errors.New("no export data for " + path)
		}
		return os.Open(exports[path])
	})
	checked := make(map[string]*types.Package)
	infos := make(map[*types.Package]*types.Info)
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})}
	for _, list := range listings {
		for _, p := range list {
			if p.Standard || checked[p.ImportPath] != nil {
				continue
			}
			var files []*ast.File
			for _, name := range p.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, f)
			}
			info := &types.Info{Uses: make(map[*ast.Ident]types.Object)}
			pkg, err := conf.Check(p.ImportPath, fset, files, info)
			if err != nil {
				t.Fatalf("type-checking %s: %v", p.ImportPath, err)
			}
			checked[p.ImportPath] = pkg
			infos[pkg] = info
		}
	}
	return infos
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// isInternal reports whether pkg is one of the repository's internal/
// packages.
func isInternal(pkg *types.Package) bool {
	return pkg != nil && strings.HasPrefix(pkg.Path(), "repro/internal/")
}

// exportedDecls maps "pkg.Name" and "pkg.Type.Method" to the object of
// every exported top-level name of an internal/ package and every exported
// method of its exported, non-interface types.
func exportedDecls(pkgs map[*types.Package]*types.Info) map[string]types.Object {
	decls := make(map[string]types.Object)
	for pkg := range pkgs {
		if !isInternal(pkg) {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			decls[pkg.Name()+"."+name] = obj
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					decls[pkg.Name()+"."+name+"."+m.Name()] = m
				}
			}
		}
	}
	return decls
}

// usedObjects reports the objects of internal/ packages that non-test code
// outside their own package refers to.
func usedObjects(pkgs map[*types.Package]*types.Info) map[types.Object]bool {
	used := make(map[types.Object]bool)
	for pkg, info := range pkgs {
		for _, obj := range info.Uses {
			if f, ok := obj.(*types.Func); ok {
				obj = f.Origin()
			}
			if isInternal(obj.Pkg()) && obj.Pkg() != pkg {
				used[obj] = true
			}
		}
	}
	return used
}

// namedInterfaces lists the non-generic named interfaces declared in the
// checked packages and in the packages they import, plus error.
func namedInterfaces(pkgs map[*types.Package]*types.Info) []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := make(map[*types.Package]bool)
	add := func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if iface, ok := named.Underlying().(*types.Interface); ok && iface.IsMethodSet() && iface.NumMethods() > 0 {
				ifaces = append(ifaces, iface)
			}
		}
	}
	for pkg := range pkgs {
		add(pkg)
		for _, imp := range pkg.Imports() {
			add(imp)
		}
	}
	return ifaces
}

// implementsInterface reports whether obj is a method whose receiver type,
// or a pointer to it, implements one of ifaces that declares the method.
func implementsInterface(obj types.Object, ifaces []*types.Interface) bool {
	m, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := m.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	T := recv.Type()
	if ptr, ok := T.(*types.Pointer); ok {
		T = ptr.Elem()
	}
	for _, iface := range ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() != m.Name() {
				continue
			}
			if types.Implements(T, iface) || types.Implements(types.NewPointer(T), iface) {
				return true
			}
		}
	}
	return false
}
