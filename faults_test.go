package repro

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestFaultModel holds FAULTS.md to the code: every row of its table has a
// known verdict, every test it names exists somewhere in the repository, a
// tolerated or detected row names at least one test, and a row whose claim
// is currently failing names a vodbench or benchmark command that
// reproduces the failure.
func TestFaultModel(t *testing.T) {
	tests := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "testdata" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				tests[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	f, err := os.Open("FAULTS.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	code := regexp.MustCompile("`([^`]+)`")
	testName := regexp.MustCompile(`^(Test|Fuzz)[A-Z0-9_]\w*$`)
	rows, inTable := 0, false
	for sc := bufio.NewScanner(f); sc.Scan(); {
		line := sc.Text()
		if !strings.HasPrefix(line, "|") {
			inTable = false
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		if cells[0] == "Fault" {
			inTable = true
			continue
		}
		if !inTable || strings.HasPrefix(cells[0], "---") {
			continue
		}
		rows++
		if len(cells) != 5 {
			t.Errorf("row %q has %d cells, want 5 (fault, verdict, mechanism, likelihood, pinned by)", cells[0], len(cells))
			continue
		}
		fault, verdict, pins := cells[0], cells[1], cells[4]
		var named, repros int
		for _, m := range code.FindAllStringSubmatch(pins, -1) {
			switch span := m[1]; {
			case testName.MatchString(span):
				named++
				if !tests[span] {
					t.Errorf("%q is pinned by %s, which no _test.go in the repository declares", fault, span)
				}
			case strings.Contains(span, "vodbench") || strings.Contains(span, "benchmark"):
				repros++
			}
		}
		switch verdict {
		case "tolerated", "detected":
			if named == 0 {
				t.Errorf("%q is %s but names no test that holds it", fault, verdict)
			}
		case "claimed tolerated, currently failing":
			if repros == 0 {
				t.Errorf("%q is currently failing but names no vodbench or benchmark command that reproduces it", fault)
			}
		case "untolerated", "unknown":
		default:
			t.Errorf("%q has verdict %q, want tolerated, detected, untolerated, unknown or \"claimed tolerated, currently failing\"", fault, verdict)
		}
	}
	if rows == 0 {
		t.Fatal("FAULTS.md has no fault table")
	}
}
