package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateTables = flag.Bool("update-tables", false,
	"rewrite testdata/tables_n500.txt from the current experiment tables")

// renderDeterministicTables renders every experiment at n=500, seeds {1,2},
// without the free-running rows (last cell "n/a (async)"): goroutine
// scheduling decides those, every other row is a pure function of
// (spec, seed).
func renderDeterministicTables(t *testing.T) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, id := range ExperimentIDs() {
		tbl, err := RunExperiment(id, SweepConfig{Sizes: []int{500}, Seeds: []uint64{1, 2}})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		rows := tbl.Rows[:0:0]
		for _, row := range tbl.Rows {
			if row[len(row)-1] != "n/a (async)" {
				rows = append(rows, row)
			}
		}
		tbl.Rows = rows
		b.WriteString(tbl.Render())
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// TestExperimentTablesGolden pins the E1–E12 tables byte for byte. The golden
// was generated while the tables still reached the engines through the
// harness's own Run/RunLockStep/RunFreeRunning; it holds the move onto
// run.Execute to "same spec and seed, same row".
func TestExperimentTablesGolden(t *testing.T) {
	got := renderDeterministicTables(t)
	path := filepath.Join("testdata", "tables_n500.txt")
	if *updateTables {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update-tables)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("experiment tables diverge from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
