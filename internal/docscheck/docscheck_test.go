// Package docscheck keeps the repository's documentation honest: it is a
// test-only package whose checks run in CI (the docs job) alongside go vet.
//
// Three invariants are enforced here and in flags_test.go:
//
//   - every relative markdown link in the top-level docs (README.md,
//     DESIGN.md, EXPERIMENTS.md, ROADMAP.md, docs/*.md) resolves to a file
//     that exists in the repository;
//   - every metric family exported by internal/obs.MetricNames is
//     documented by name in docs/OBSERVABILITY.md, so the metric inventory
//     there can be trusted as complete;
//   - every -flag on a doc line that invokes one of the cmd/* binaries, by
//     bare name or as go run ./cmd/<bin>, is a flag that binary defines (a
//     cmd/<bin> source path is not an invocation), and pdbrun, pdbbench
//     and pdbserve all define -mem-budget.
//
// The other files pin the rest: option and ablation-switch names
// (options_test.go), doc comments on exported symbols (godoc_test.go) and
// the tutorial's transcripts (tutorial_test.go).
package docscheck

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"
)

// repoRoot locates the repository root relative to this test file.
func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root not found at %s: %v", root, err)
	}
	return root
}

// docFiles lists the markdown files under the link checker.
func docFiles(t *testing.T, root string) []string {
	t.Helper()
	files := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"}
	matches, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range matches {
		rel, err := filepath.Rel(root, m)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, rel)
	}
	return files
}

// mdLink matches [text](target) and [text](target "title"), capturing the
// target. Inline images (![alt](target)) match too, which is intended.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

func TestMarkdownLinksResolve(t *testing.T) {
	root := repoRoot(t)
	checked := 0
	for _, rel := range docFiles(t, root) {
		path := filepath.Join(root, rel)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", rel, err)
		}
		inFence := false
		for _, line := range strings.Split(string(data), "\n") {
			// Skip fenced code blocks: shell snippets legitimately contain
			// (URL) shapes that are not document links.
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				inFence = !inFence
				continue
			}
			if inFence {
				continue
			}
			for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
				target := m[1]
				switch {
				case strings.HasPrefix(target, "http://"),
					strings.HasPrefix(target, "https://"),
					strings.HasPrefix(target, "mailto:"):
					continue // external; never fetched from CI
				case strings.HasPrefix(target, "#"):
					continue // intra-document anchor
				}
				target, _, _ = strings.Cut(target, "#")
				resolved := filepath.Join(filepath.Dir(path), filepath.FromSlash(target))
				if _, err := os.Stat(resolved); err != nil {
					t.Errorf("%s: broken link %q (resolved %s)", rel, m[1], resolved)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("link checker matched no links — regexp or file set broken?")
	}
}

func TestEveryMetricDocumented(t *testing.T) {
	root := repoRoot(t)
	data, err := os.ReadFile(filepath.Join(root, "docs", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatalf("docs/OBSERVABILITY.md must exist — it is the metric reference: %v", err)
	}
	doc := string(data)
	names := obs.MetricNames()
	if len(names) == 0 {
		t.Fatal("obs.MetricNames returned nothing")
	}
	for _, name := range names {
		if !strings.Contains(doc, "`"+name+"`") {
			t.Errorf("metric %s exported by internal/obs is not documented in docs/OBSERVABILITY.md", name)
		}
	}
}

// TestMemBudgetFlagInventory keeps docs/SPILL.md's flag table honest from
// the other direction: every CLI it names as carrying the bounded-memory
// knob must actually define -mem-budget (TestDocumentedFlagsExist already
// checks that documented flags exist; this check pins that the flag is
// present on all three entry points even if the doc table is edited).
func TestMemBudgetFlagInventory(t *testing.T) {
	root := repoRoot(t)
	flags := binaryFlags(t, root)
	for _, cmd := range []string{"pdbrun", "pdbbench", "pdbserve"} {
		if !flags[cmd]["mem-budget"] {
			t.Errorf("cmd/%s does not define -mem-budget, but docs/SPILL.md documents it", cmd)
		}
	}
	data, err := os.ReadFile(filepath.Join(root, "docs", "SPILL.md"))
	if err != nil {
		t.Fatalf("docs/SPILL.md must exist — it is the bounded-memory reference: %v", err)
	}
	if !strings.Contains(string(data), "`-mem-budget`") {
		t.Error("docs/SPILL.md does not document the -mem-budget flag")
	}
}
