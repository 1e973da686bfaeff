package optimizer

import (
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"
)

// TestAlgorithmConstantsAreTheRegistry holds the package comment's promise
// that "the constants mirror the internal registry": the exported Alg*
// constants of optimizer.go, read from the source, and Algorithms() name the
// same algorithms one to one. Names deleted from the registry stay deleted:
// InProcess answers them with *UnknownAlgorithmError.
func TestAlgorithmConstantsAreTheRegistry(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "optimizer.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	consts := map[Algorithm]string{} // value → constant name
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, id := range vs.Names {
				if !id.IsExported() || !strings.HasPrefix(id.Name, "Alg") {
					continue
				}
				var lit *ast.BasicLit
				if i < len(vs.Values) {
					lit, _ = vs.Values[i].(*ast.BasicLit)
				}
				if lit == nil || lit.Kind != token.STRING {
					t.Fatalf("%s is not a string literal", id.Name)
				}
				v, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				if prev, dup := consts[Algorithm(v)]; dup {
					t.Errorf("%s and %s both name %q", prev, id.Name, v)
				}
				consts[Algorithm(v)] = id.Name
			}
		}
	}
	registered := map[Algorithm]bool{}
	for _, a := range Algorithms() {
		registered[a] = true
		if _, ok := consts[a]; !ok {
			t.Errorf("the registry has %q and optimizer.go no constant for it", a)
		}
	}
	for v, name := range consts {
		if !registered[v] {
			t.Errorf("%s = %q names no registered algorithm", name, v)
		}
	}

	q := Star(6, 1)
	for _, name := range []Algorithm{"pdp", "dpe", "geqo", "minsel", "idp1"} {
		_, err := InProcess().Optimize(context.Background(), q, WithAlgorithm(name))
		var unknown *UnknownAlgorithmError
		if !errors.As(err, &unknown) || unknown.Algorithm != name {
			t.Errorf("WithAlgorithm(%q): err = %v, want *UnknownAlgorithmError", name, err)
		}
	}
}
