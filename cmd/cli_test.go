// Package cmd_test smoke-tests the command-line tools end to end: generate
// a workload with pdbgen, evaluate it with pdbrun under several strategies,
// and regenerate Table 1 with pdbbench.
package cmd_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// run builds-and-runs a command in this module via `go run`.
func run(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	cmd.Dir = ".."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run %v: %v\n%s", args, err, out)
	}
	return string(out)
}

func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test rebuilds binaries; skipped in -short mode")
	}
	dir := t.TempDir()
	data := filepath.Join(dir, "p1")

	out := run(t, "./cmd/pdbgen", "-query", "P1", "-n", "3", "-m", "30",
		"-fanout", "3", "-rf", "0.2", "-rd", "1", "-seed", "5", "-out", data)
	if !strings.Contains(out, "generated P1 tables") {
		t.Fatalf("pdbgen output: %s", out)
	}
	for _, f := range []string{"R1.csv", "S1.csv", "R2.csv"} {
		if _, err := os.Stat(filepath.Join(data, f)); err != nil {
			t.Fatalf("missing %s: %v", f, err)
		}
	}

	queryText := "q(h) :- R1(h, x), S1(h, x, y), R2(h, y)"
	probRe := regexp.MustCompile(`(?m)^\d+  0\.\d+`)

	partial := run(t, "./cmd/pdbrun", "-data", data, "-query", queryText,
		"-order", "R1,S1,R2", "-strategy", "partial", "-plan")
	if !strings.Contains(partial, "plan:") || !probRe.MatchString(partial) {
		t.Fatalf("pdbrun partial output:\n%s", partial)
	}
	dnf := run(t, "./cmd/pdbrun", "-data", data, "-query", queryText,
		"-order", "R1,S1,R2", "-strategy", "dnf")
	if !probRe.MatchString(dnf) {
		t.Fatalf("pdbrun dnf output:\n%s", dnf)
	}
	// The two strategies print identical probability lines.
	pp := probRe.FindAllString(partial, -1)
	dd := probRe.FindAllString(dnf, -1)
	if len(pp) == 0 || len(pp) != len(dd) {
		t.Fatalf("answer line mismatch: %v vs %v", pp, dd)
	}
	for i := range pp {
		if pp[i] != dd[i] {
			t.Errorf("strategies disagree: %q vs %q", pp[i], dd[i])
		}
	}

	optimized := run(t, "./cmd/pdbrun", "-data", data, "-query", queryText, "-optimize")
	if !strings.Contains(optimized, "optimizer ranked") {
		t.Fatalf("pdbrun -optimize output:\n%s", optimized)
	}

	dot := filepath.Join(dir, "net.dot")
	run(t, "./cmd/pdbrun", "-data", data, "-query", queryText, "-dot", dot)
	b, err := os.ReadFile(dot)
	if err != nil || !strings.Contains(string(b), "digraph") {
		t.Fatalf("DOT export: %v", err)
	}

	table1 := run(t, "./cmd/pdbbench", "-experiment", "table1")
	if !strings.Contains(table1, "P1/S1") || !strings.Contains(table1, "R1, S1, R2") {
		t.Fatalf("pdbbench table1 output:\n%s", table1)
	}
}

// TestPdbfuzzCLI: a clean sweep exits 0; an injected divergence exits 1 with
// a minimized, loadable reproducer that pdbrun can replay.
func TestPdbfuzzCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test rebuilds binaries; skipped in -short mode")
	}
	out := run(t, "./cmd/pdbfuzz", "-n", "40", "-seed", "1")
	if !strings.Contains(out, "40 instances ok") {
		t.Fatalf("pdbfuzz clean run output:\n%s", out)
	}

	dir := filepath.Join(t.TempDir(), "repro")
	cmd := exec.Command("go", "run", "./cmd/pdbfuzz",
		"-n", "20", "-seed", "1", "-inject", "dnf:0.3", "-dump", dir)
	cmd.Dir = ".."
	b, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("pdbfuzz with injected divergence exited 0:\n%s", b)
	}
	outInj := string(b)
	for _, want := range []string{"DIVERGED", "minimized reproducer", "query:", "pdbrun -data"} {
		if !strings.Contains(outInj, want) {
			t.Fatalf("pdbfuzz reproducer output missing %q:\n%s", want, outInj)
		}
	}
	// The dumped reproducer must load and evaluate.
	queryText, err := os.ReadFile(filepath.Join(dir, "query.txt"))
	if err != nil {
		t.Fatalf("dumped reproducer has no query.txt: %v", err)
	}
	replay := run(t, "./cmd/pdbrun", "-data", dir,
		"-query", strings.TrimSpace(string(queryText)), "-strategy", "dnf")
	if !strings.Contains(replay, "strategy=dnf") {
		t.Fatalf("replaying dumped reproducer:\n%s", replay)
	}
}

// TestPdbbenchUnknownExperiment: a bogus -experiment name must fail with an
// error that lists every valid experiment name.
func TestPdbbenchUnknownExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test rebuilds binaries; skipped in -short mode")
	}
	cmd := exec.Command("go", "run", "./cmd/pdbbench", "-experiment", "bogus")
	cmd.Dir = ".."
	b, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("pdbbench -experiment bogus exited 0:\n%s", b)
	}
	out := string(b)
	if !strings.Contains(out, `unknown experiment "bogus"`) {
		t.Fatalf("error does not name the bad experiment:\n%s", out)
	}
	for _, name := range []string{"table1", "fig5", "fig6", "fig7", "cache",
		"planner", "incremental", "topk", "spill", "compile"} {
		if !strings.Contains(out, name) {
			t.Errorf("error does not list valid experiment %q:\n%s", name, out)
		}
	}
}

func TestPdbbenchJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test rebuilds binaries; skipped in -short mode")
	}
	out := run(t, "./cmd/pdbbench", "-experiment", "fig7", "-scale", "small", "-json")
	var records []map[string]interface{}
	if err := json.Unmarshal([]byte(out), &records); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out[:min(len(out), 500)])
	}
	if len(records) == 0 {
		t.Fatal("no measurements")
	}
	for _, r := range records {
		if r["experiment"] != "fig7" || r["strategy"] == "" {
			t.Errorf("bad record: %v", r)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
