package crosscheck

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/engine"
	"repro/internal/tuple"
	"repro/pdb"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestDefaultPathGoldenBits pins the floats of the default evaluation path:
// 60 generator seeds under every exact strategy with default pdb.Options,
// each answer's float64 bits compared against a committed file. It is what
// the planner, interning and pooling on/off dimensions became when their
// switches were deleted: a change to the default path that shifts a single
// bit of any answer fails here, with no second mode needed to compare
// against. Regenerate with -update only for a change that is meant to move
// answers.
func TestDefaultPathGoldenBits(t *testing.T) {
	var buf bytes.Buffer
	for seed := int64(0); seed < 60; seed++ {
		in := Generate(seed, GenConfig{})
		db, err := toPDB(in)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		q, err := pdb.ParseQuery(in.Q.String())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, s := range ExactStrategies() {
			res, err := db.Evaluate(q, pdb.Options{Strategy: s})
			if errors.Is(err, engine.ErrNotDataSafe) {
				fmt.Fprintf(&buf, "%d %v not-data-safe\n", seed, s)
				continue
			}
			if err != nil {
				t.Fatalf("seed %d strategy %v: %v", seed, s, err)
			}
			fmt.Fprintf(&buf, "%d %v answers %d\n", seed, s, len(res.Rows))
			lines := make([]string, len(res.Rows))
			for i, row := range res.Rows {
				lines[i] = fmt.Sprintf("%d %v %q %016x\n", seed, s, tuple.Tuple(row.Vals).Key(), math.Float64bits(row.P))
			}
			sort.Strings(lines)
			for _, l := range lines {
				buf.WriteString(l)
			}
		}
	}
	path := filepath.Join("testdata", "default_path.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	got, exp := bytes.Split(buf.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range got {
		if i >= len(exp) || !bytes.Equal(got[i], exp[i]) {
			e := []byte("<end of file>")
			if i < len(exp) {
				e = exp[i]
			}
			t.Fatalf("default path moved at line %d:\n got  %s\n want %s", i+1, got[i], e)
		}
	}
	t.Fatalf("default path lost answers: %d lines, golden has %d", len(got), len(exp))
}
