package docscheck

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The documentation demonstrates the CLI tools constantly; a renamed or
// removed flag silently strands every example that mentions it. This check
// keeps the docs honest: any `-flag` token appearing on a command line that
// invokes one of this repository's binaries (pdbrun, pdbserve, ...) must be
// a flag that binary actually defines, and every inline-code flag in
// docs/SERVER.md must exist on pdbserve (its flag table names no binary).
// A line invokes a binary in one of two forms: the bare name ("pdbrun
// -explain") or the package path that go run and go build take ("go run
// ./cmd/pdbrun -explain"). A source path such as cmd/pdbbench or
// cmd/pdbrun/main.go names the code, not a command line, so the flags
// beside it (say, go test's -tags) are not that binary's.

// flagDef matches the standard flag-package definition forms.
var flagDef = regexp.MustCompile(`flag\.(?:String|Bool|Int|Int64|Float64|Duration)\("([^"]+)"`)

// binaryFlags scans every .go file of each cmd/* binary for flag
// definitions. All binaries also get -metrics-addr-style flags only if they
// define them — nothing is assumed.
func binaryFlags(t *testing.T, root string) map[string]map[string]bool {
	t.Helper()
	out := make(map[string]map[string]bool)
	dirs, err := filepath.Glob(filepath.Join(root, "cmd", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		info, err := os.Stat(dir)
		if err != nil || !info.IsDir() {
			continue
		}
		name := filepath.Base(dir)
		flags := make(map[string]bool)
		srcs, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range srcs {
			data, err := os.ReadFile(src)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range flagDef.FindAllStringSubmatch(string(data), -1) {
				flags[m[1]] = true
			}
		}
		out[name] = flags
	}
	if len(out) == 0 {
		t.Fatal("no cmd/* binaries found")
	}
	return out
}

var (
	// binaryInvocation finds a binary name on a line; invokedBinary drops
	// the matches that are source paths ("cmd/pdbrun", "cmd/pdbrun/main.go").
	binaryInvocation = regexp.MustCompile(`\b(pdbrun|pdbserve|pdbbench|pdbshell|pdbfuzz|pdbgen)\b`)
	// flagToken is a candidate CLI flag, bare or with its value attached
	// ("-experiment=fig5"); only the name is checked.
	flagToken = regexp.MustCompile(`^-([a-z][a-z0-9-]*)(?:=.*)?$`)
	// quoted strips single-quoted argument payloads (query text contains
	// ":-" and spaces that would confuse tokenization).
	quoted = regexp.MustCompile(`'[^']*'`)
	// inlineFlag is a `-flag` mention in inline code (for the SERVER.md
	// flag table, which names no binary).
	inlineFlag = regexp.MustCompile("`-([a-z][a-z0-9-]*)`")
)

// invokedBinary returns the binary a doc line invokes, or "" when it invokes
// none. A name preceded by "/" counts only under "./cmd/", the package path
// form; any other path is a source path. A line mentioning exactly one binary
// attributes every flag token on it to that binary; multi-binary lines are
// prose, skipped (each binary's own example lines cover them).
func invokedBinary(line string) string {
	var bins []string
	for _, m := range binaryInvocation.FindAllStringSubmatchIndex(line, -1) {
		before := line[:m[0]]
		if strings.HasSuffix(before, "/") && !strings.HasSuffix(before, "./cmd/") {
			continue
		}
		bins = append(bins, line[m[2]:m[3]])
	}
	if len(bins) != 1 {
		return ""
	}
	return bins[0]
}

func TestInvokedBinary(t *testing.T) {
	for _, tc := range []struct {
		line, want string
	}{
		{"| seven legacy `BENCH_*.json` with their writers (`internal/experiments` 1 809 lines, `cmd/pdbbench` 336) sit beside the harness; ratio gates run only under `-tags perfsmoke` | tree |", ""},
		{"`go run ./cmd/pdbbench -experiment cache`", "pdbbench"},
		{"`pdbrun -explain`", "pdbrun"},
		{"the flags are parsed in `cmd/pdbrun/main.go`", ""},
	} {
		if got := invokedBinary(tc.line); got != tc.want {
			t.Errorf("invokedBinary(%q) = %q, want %q", tc.line, got, tc.want)
		}
	}
}

func TestFlagToken(t *testing.T) {
	for _, tc := range []struct {
		tok, want string
	}{
		{"-explain", "explain"},
		{"-experiment=table1", "experiment"},
		{"-mem-budget=65536", "mem-budget"},
		{"-1", ""},
		{"--", ""},
	} {
		got := ""
		if m := flagToken.FindStringSubmatch(tc.tok); m != nil {
			got = m[1]
		}
		if got != tc.want {
			t.Errorf("flagToken(%q) = %q, want %q", tc.tok, got, tc.want)
		}
	}
}

func TestDocumentedFlagsExist(t *testing.T) {
	root := repoRoot(t)
	flags := binaryFlags(t, root)
	checked := 0
	for _, rel := range docFiles(t, root) {
		data, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			t.Fatal(err)
		}
		// Join shell continuation lines so a wrapped command stays one
		// logical invocation.
		text := strings.ReplaceAll(string(data), "\\\n", " ")
		for n, line := range strings.Split(text, "\n") {
			bin := invokedBinary(line)
			if bin == "" {
				continue
			}
			for _, tok := range strings.Fields(quoted.ReplaceAllString(line, "''")) {
				tok = strings.Trim(tok, "`\"().,;:")
				m := flagToken.FindStringSubmatch(tok)
				if m == nil {
					continue
				}
				checked++
				if !flags[bin][m[1]] {
					t.Errorf("%s:%d: flag -%s is not defined by cmd/%s (line: %s)",
						rel, n+1, m[1], bin, strings.TrimSpace(line))
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no documented flag invocations found — doc set or matcher broken")
	}

	// SERVER.md's flag table documents pdbserve without naming it per row.
	data, err := os.ReadFile(filepath.Join(root, "docs", "SERVER.md"))
	if err != nil {
		t.Fatal(err)
	}
	inFence := false
	for n, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue // fenced commands are covered by the invocation check
		}
		for _, m := range inlineFlag.FindAllStringSubmatch(line, -1) {
			if !flags["pdbserve"][m[1]] {
				t.Errorf("docs/SERVER.md:%d: flag -%s is not defined by cmd/pdbserve", n+1, m[1])
			}
		}
	}
}
