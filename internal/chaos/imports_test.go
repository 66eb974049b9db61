package chaos

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestImportsInjectorOnly keeps the package to the injector: its non-test
// files import only the layers a fault perturbs (core, fabric, mem, nic,
// sim) and trace, plus the standard library. The scenario testbeds, which
// build on kv, rc, tcp and topo, live in internal/bench.
func TestImportsInjectorOnly(t *testing.T) {
	allowed := map[string]bool{}
	for _, p := range []string{"core", "fabric", "mem", "nic", "sim", "trace"} {
		allowed["npf/internal/"+p] = true
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			// A standard-library path's first element has no dot; the
			// module's own paths start with "npf".
			first, _, _ := strings.Cut(path, "/")
			if allowed[path] || (first != "npf" && !strings.Contains(first, ".")) {
				continue
			}
			t.Errorf("%s imports %s; the injector may import only core, fabric, mem, nic, sim, trace and the standard library", name, path)
		}
	}
}
