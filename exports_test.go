package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowlist names the exported identifiers in internal/ that no
// non-test file outside their own package names, each with the reason it
// stays exported. TestExportedNamesAreUsed fails on an unused name missing
// here and on an entry that is used again or gone.
var exportAllowlist = map[string]string{
	"buffer.InsertResult":                     "type returned by Pipeline.Insert, which client calls",
	"buffer.Buffered":                         "member of the exported enum InsertResult",
	"buffer.LateDiscarded":                    "member of the exported enum InsertResult",
	"chaos.Execute":                           "chaos replay API: runs one drawn plan alone; chaos_test drives it",
	"chaos.NewPlan":                           "chaos replay API: draws a seed's plan; chaos_test drives it",
	"chaos.Kind":                              "type of Op.Kind, reached through Report.Plan",
	"chaos.Op":                                "element type of Plan.Ops, reached through Report.Plan",
	"chaos.Plan":                              "type of Report.Plan, which cmd/vodbench prints",
	"chaos.KindAdd":                           "member of the exported enum Kind",
	"chaos.KindCrash":                         "member of the exported enum Kind",
	"chaos.KindCrashServing":                  "member of the exported enum Kind",
	"chaos.KindHeal":                          "member of the exported enum Kind",
	"chaos.KindLinkFlap":                      "member of the exported enum Kind",
	"chaos.KindLossBurst":                     "member of the exported enum Kind",
	"chaos.KindPartition":                     "member of the exported enum Kind",
	"chaos.KindPause":                         "member of the exported enum Kind",
	"chaos.KindRestart":                       "member of the exported enum Kind",
	"chaos.KindSeek":                          "member of the exported enum Kind",
	"client.StateIdle":                        "member of the exported enum State",
	"client.StateOpening":                     "member of the exported enum State",
	"client.StateStopped":                     "member of the exported enum State",
	"congress.Directory":                      "type returned by NewDirectory, which examples/discovery calls",
	"core.Server":                             "type in the signatures of Deployment.Server and EachServer",
	"gcs.ErrAlreadyJoined":                    "error sentinel returned by Join",
	"gcs.ErrClosed":                           "error sentinel returned by a closed Process or Member",
	"gcs.ViewID":                              "type of View.ID, which server reads",
	"metrics.Series.MeanBetween":              "accessor the sim tests and root benchmarks read",
	"metrics.Series.MinBetween":               "accessor the sim tests and root benchmarks read",
	"mpeg.FrameInfo":                          "type returned by Movie.Frame",
	"mpeg.Movie.TotalBytes":                   "accessor the fetch and store tests read",
	"netsim.Network.SetProfile":               "accessor the gcs tests use to change link weather",
	"netsim.Stats":                            "type returned by Network.Stats, which the root and sim tests read",
	"obs.Event":                               "element type of Snapshot.Events, the text -stats and /debug/vod print",
	"obs.Record":                              "element type of Snapshot.Records; callers write one through Registry.Emit",
	"obs.Snapshot":                            "type returned by Registry.Snapshot, which cmd/vodbench and sim read",
	"obs.Registry.ServeHTTP":                  "interface method: the daemons mount a Registry as an http.Handler",
	"sim.ClassOutcome":                        "type of the OverloadResult fields chaos reads",
	"sim.Signals":                             "type of Scenario.Record",
	"sim.Combined":                            "member of the exported enum Signals",
	"sim.HW":                                  "member of the exported enum Signals",
	"sim.Late":                                "member of the exported enum Signals",
	"sim.Overflow":                            "member of the exported enum Signals",
	"sim.SW":                                  "member of the exported enum Signals",
	"sim.Serving":                             "member of the exported enum Signals",
	"sim.Skipped":                             "member of the exported enum Signals",
	"sim.Video":                               "member of the exported enum Signals",
	"sim.EventTimesLAN":                       "accessor the root benchmarks read",
	"sim.Throughput":                          "type returned by MeasureThroughput",
	"store.Catalog.SaveTo":                    "writer of the -moviedir format that cmd/vod-server's flag help names; its test uses it",
	"store.ErrNotFound":                       "error sentinel returned by Catalog.Get",
	"store.MovieFileExt":                      "accessor cmd/vod-server's test names movie files with",
	"sweep.Func":                              "type in the signatures of Run and RunOpts",
	"sweep.Errors":                            "error type RunOpts returns, matched with errors.As",
	"sweep.Errors.Unwrap":                     "interface method for errors.Is/As",
	"sweep.JobError":                          "error type RunOpts returns, matched with errors.As",
	"sweep.JobError.Unwrap":                   "interface method for errors.Is/As",
	"sweep.PanicError":                        "error type a panicking job is reported as, matched with errors.As",
	"tiger.Receiver":                          "type returned by NewReceiver, which sim calls",
	"tiger.Service":                           "type returned by New, which sim calls",
	"transport.ChannelID":                     "type of the Channel* constants and of Mux.Channel's argument",
	"transport.UDPEndpoint.PeerCacheLen":      "accessor the transport tests read",
	"transport.UDPEndpoint.SetPeerCacheLimit": "test hook: the transport tests bound the cache to exercise eviction",
	"wire.ErrTrailing":                        "error sentinel returned by the decoders",
	"wire.ErrTruncated":                       "error sentinel returned by the decoders",
	"wire.KindFrame":                          "member of the exported enum Kind",
	"wire.Message":                            "interface type returned by Decode",
}

// TestExportedNamesAreUsed keeps the exported surface of internal/ to what
// the system uses. It lists the exported top-level types, funcs, methods,
// vars and consts declared in non-test files under internal/, and counts a
// name as used when a non-test file outside its package directory names it:
// a file of the root module, or one under benchmark/, which is a module of
// its own (so not in ./...) and is parsed here as plain files.
//
// A package-level name is used when a file that imports its package
// selects it (pkg.Name). A method is matched by name alone: any selector
// .Name outside the package uses every method called Name. So the test can
// miss a dead method, but it never flags a live one.
func TestExportedNamesAreUsed(t *testing.T) {
	decls := exportedDecls(t)
	used := usedNames(t)

	var unused []string
	for key, d := range decls {
		if !used.usedBy(d) {
			unused = append(unused, key)
		}
	}
	sort.Strings(unused)
	for _, key := range unused {
		if _, ok := exportAllowlist[key]; !ok {
			t.Errorf("%s is exported but no non-test file outside %s names it: delete it, unexport it, or add it to exportAllowlist with the reason it stays", key, decls[key].pkgDir)
		}
	}
	for key := range exportAllowlist {
		d, ok := decls[key]
		switch {
		case !ok:
			t.Errorf("exportAllowlist names %s, which is no longer an exported name in internal/: drop the entry", key)
		case used.usedBy(d):
			t.Errorf("exportAllowlist names %s, which a file outside %s now uses: drop the entry", key, d.pkgDir)
		}
	}
	t.Logf("%d exported names in internal/, %d unused outside their package", len(decls), len(unused))
}

// exportedDecl is one exported name: the package directory that declares
// it and the reference that uses it (the name itself, or ".Method").
type exportedDecl struct {
	pkgDir string
	ref    string
}

// exportedDecls maps "pkg.Name" and "pkg.Type.Method" to their declaration
// for every exported top-level name in the non-test files under internal/.
func exportedDecls(t *testing.T) map[string]exportedDecl {
	t.Helper()
	decls := make(map[string]exportedDecl)
	add := func(dir, key, ref string) {
		decls[filepath.Base(dir)+"."+key] = exportedDecl{pkgDir: dir, ref: ref}
	}
	for _, path := range goFiles(t, "internal") {
		f := parseFile(t, path)
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					add(dir, d.Name.Name, d.Name.Name)
				} else if recv := receiverName(d.Recv.List[0].Type); ast.IsExported(recv) {
					add(dir, recv+"."+d.Name.Name, "."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							add(dir, s.Name.Name, s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								add(dir, n.Name, n.Name)
							}
						}
					}
				}
			}
		}
	}
	return decls
}

// receiverName returns the type name of a method receiver, stripping the
// pointer and any type parameters.
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// uses records what the non-test files of the repository name: pkg[dir]
// holds the names selected through an import of the package in dir, and
// sel[name] the directories of the files with a selector of that name (a
// possible method call).
type uses struct {
	pkg map[string]map[string]bool
	sel map[string]map[string]bool
}

// usedBy reports whether a file outside d's package directory names d.
func (u uses) usedBy(d exportedDecl) bool {
	name, method := strings.CutPrefix(d.ref, ".")
	if !method {
		return u.pkg[d.pkgDir][name]
	}
	for dir := range u.sel[name] {
		if dir != d.pkgDir {
			return true
		}
	}
	return false
}

// usedNames parses every non-test .go file of the repository into uses.
func usedNames(t *testing.T) uses {
	t.Helper()
	u := uses{pkg: make(map[string]map[string]bool), sel: make(map[string]map[string]bool)}
	mark := func(m map[string]map[string]bool, k, v string) {
		if m[k] == nil {
			m[k] = make(map[string]bool)
		}
		m[k][v] = true
	}
	for _, path := range goFiles(t, ".") {
		f := parseFile(t, path)
		dir := filepath.ToSlash(filepath.Dir(path))
		imports := make(map[string]string) // local name -> internal package dir
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			rel, ok := strings.CutPrefix(p, "repro/")
			if !ok || !strings.HasPrefix(rel, "internal/") {
				continue
			}
			name := filepath.Base(rel)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = rel
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok {
				if pkg, ok := imports[x.Name]; ok && pkg != dir {
					mark(u.pkg, pkg, sel.Sel.Name)
				}
			}
			mark(u.sel, sel.Sel.Name, dir)
			return true
		})
	}
	return u
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
