package docscheck

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/planner"
	"repro/internal/server"
	"repro/pdb"
)

// The docs name option fields and wire fields in prose; deleting a switch
// strands every sentence that mentions it. These checks tie the prose to the
// structs: a documented `Options.X` must be a field, a documented "no_*"
// request field must be one the server decodes, and the set of No* switches
// is pinned so that adding one is an edit of this file, made on purpose.

// fieldNames returns the exported field names of a struct type.
func fieldNames(v any) map[string]bool {
	t := reflect.TypeOf(v)
	out := make(map[string]bool, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i); f.IsExported() {
			out[f.Name] = true
		}
	}
	return out
}

// wireNames returns the JSON field names of a struct type.
func wireNames(v any) map[string]bool {
	t := reflect.TypeOf(v)
	out := make(map[string]bool, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		if name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ","); name != "" && name != "-" {
			out[name] = true
		}
	}
	return out
}

// withPrefix returns the sorted names carrying the prefix.
func withPrefix(names map[string]bool, prefix string) []string {
	var out []string
	for n := range names {
		if strings.HasPrefix(n, prefix) {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

var (
	// optionRef matches Options.X and TopKOptions.X with an optional package
	// qualifier; an unqualified mention means the public pdb type.
	optionRef = regexp.MustCompile(`\b(?:(pdb|engine|planner)\.)?(TopKOptions|Options)\.([A-Z]\w*)`)
	// wireSwitchRef matches a no_* name quoted as JSON or as inline code.
	wireSwitchRef = regexp.MustCompile("[\"`](no_[a-z_]+)[\"`]")
)

// noSuchTuple is the one documented no_* name that is not a request field:
// the error code of a /mutate on a missing tuple.
const noSuchTuple = "no_such_tuple"

func TestDocumentedOptionsExist(t *testing.T) {
	root := repoRoot(t)
	structs := map[string]map[string]bool{
		"pdb.Options":     fieldNames(pdb.Options{}),
		"pdb.TopKOptions": fieldNames(pdb.TopKOptions{}),
		"engine.Options":  fieldNames(engine.Options{}),
		"planner.Options": fieldNames(planner.Options{}),
	}
	wire := wireNames(server.QueryRequest{})
	files, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, filepath.Join(root, "README.md"))
	checked := 0
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(root, path)
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range optionRef.FindAllStringSubmatch(line, -1) {
				pkg := m[1]
				if pkg == "" {
					pkg = "pdb"
				}
				fields, ok := structs[pkg+"."+m[2]]
				if !ok {
					t.Errorf("%s:%d: %s names a type this check does not know", rel, i+1, m[0])
					continue
				}
				checked++
				if !fields[m[3]] {
					t.Errorf("%s:%d: %s.%s has no field %s (line: %s)", rel, i+1, pkg, m[2], m[3], strings.TrimSpace(line))
				}
			}
			for _, m := range wireSwitchRef.FindAllStringSubmatch(line, -1) {
				checked++
				if !wire[m[1]] && m[1] != noSuchTuple {
					t.Errorf("%s:%d: %q is not a field of server.QueryRequest (line: %s)", rel, i+1, m[1], strings.TrimSpace(line))
				}
			}
		}
	}
	if checked < 20 {
		t.Fatalf("only %d option mentions found; the patterns no longer match the docs", checked)
	}
}

// TestAblationSwitchInventory pins the No* switches of the public surface.
// A new one is a new configuration every equivalence test and benchmark has
// to cover, so it should arrive with an edit of these lists, not by accident.
func TestAblationSwitchInventory(t *testing.T) {
	for _, tc := range []struct {
		what string
		got  []string
		want []string
	}{
		{"pdb.Options", withPrefix(fieldNames(pdb.Options{}), "No"), []string{"NoCircuit", "NoCons", "NoFallback", "NoMemo"}},
		{"pdb.TopKOptions", withPrefix(fieldNames(pdb.TopKOptions{}), "No"), []string{"NoSeedBounds"}},
		{"server.QueryRequest", withPrefix(wireNames(server.QueryRequest{}), "no_"), []string{"no_cache", "no_circuit", "no_seed_bounds"}},
	} {
		if !reflect.DeepEqual(tc.got, tc.want) {
			t.Errorf("%s No* switches are %v, pinned %v: change the list here if the change is meant", tc.what, tc.got, tc.want)
		}
	}
}
