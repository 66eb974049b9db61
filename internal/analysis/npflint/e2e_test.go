package npflint_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runNpflint executes the real multichecker binary from the module root
// and returns its exit code and stdout.
func runNpflint(t *testing.T, args ...string) (int, string) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", append([]string{"run", "./cmd/npflint"}, args...)...)
	cmd.Dir = root
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err = cmd.Run()
	code := 0
	if err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("running npflint: %v\n%s", err, stderr.String())
		}
		code = ee.ExitCode()
	}
	if code == 2 {
		t.Fatalf("npflint internal error: %s", stderr.String())
	}
	return code, stdout.String()
}

// TestExitCodes pins the gate contract: non-zero on diagnostics, zero on
// a clean package.
func TestExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs the real binary; skipped in -short")
	}
	code, out := runNpflint(t, "./internal/analysis/npflint/testdata/badpkg")
	if code != 1 {
		t.Fatalf("known-bad package: exit=%d, want 1\n%s", code, out)
	}
	for _, want := range []string{"detflow", "maporder", "bad.go"} {
		if !strings.Contains(out, want) {
			t.Errorf("known-bad output missing %q:\n%s", want, out)
		}
	}

	code, out = runNpflint(t, "./internal/analysis/directive")
	if code != 0 {
		t.Fatalf("clean package: exit=%d, want 0\n%s", code, out)
	}
	if out != "" {
		t.Errorf("clean package: unexpected output:\n%s", out)
	}
}

// TestJSONOutput pins the -json machine-readable format.
func TestJSONOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs the real binary; skipped in -short")
	}
	code, out := runNpflint(t, "-json", "./internal/analysis/npflint/testdata/badpkg")
	if code != 1 {
		t.Fatalf("known-bad package: exit=%d, want 1\n%s", code, out)
	}
	var doc struct {
		Diagnostics []struct {
			Analyzer string `json:"analyzer"`
			Pos      string `json:"pos"`
			Message  string `json:"message"`
		} `json:"diagnostics"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("parsing -json output: %v\n%s", err, out)
	}
	if len(doc.Diagnostics) != 2 {
		t.Fatalf("got %d diagnostics, want 2:\n%s", len(doc.Diagnostics), out)
	}
	byAnalyzer := map[string]bool{}
	for _, d := range doc.Diagnostics {
		byAnalyzer[d.Analyzer] = true
		if d.Pos == "" || d.Message == "" {
			t.Errorf("diagnostic missing pos/message: %+v", d)
		}
		if !strings.Contains(d.Pos, "bad.go:") {
			t.Errorf("diagnostic pos %q does not point into bad.go", d.Pos)
		}
	}
	if !byAnalyzer["detflow"] || !byAnalyzer["maporder"] {
		t.Errorf("expected detflow and maporder diagnostics, got %v", byAnalyzer)
	}
}
