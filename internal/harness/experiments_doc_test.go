package harness

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestExperimentsDocMatchesTables holds the tables EXPERIMENTS.md quotes for
// E9, E10 and E12 to the code: each is rendered afresh at the -sizes and
// -seeds of its section's regeneration command, and every deterministic line
// of the quoted block, whitespace-trimmed, must appear in that render.
// Free-running rows (last cell "n/a (async)") are decided by goroutine
// scheduling and are skipped. Rendering takes seconds, so the test skips
// under -race like the large theorem cells and CI runs it in their step.
func TestExperimentsDocMatchesTables(t *testing.T) {
	if raceEnabled {
		t.Skip("renders E9, E10 and E12 at n = 1000-2000; runs without -race")
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"E9", "E10", "E12"} {
		t.Run(id, func(t *testing.T) {
			cfg, quoted := quotedTable(t, string(doc), id)
			tbl, err := RunExperiment(id, cfg)
			if err != nil {
				t.Fatal(err)
			}
			render := tbl.Render()
			fresh := map[string]bool{}
			for _, line := range strings.Split(render, "\n") {
				fresh[strings.TrimSpace(line)] = true
			}
			stale := 0
			for _, line := range quoted {
				if !fresh[line] {
					t.Errorf("quoted line not in a fresh render: %s", line)
					stale++
				}
			}
			if stale > 0 {
				t.Logf("fresh render:\n%s", render)
			}
		})
	}
}

// quotedTable returns the sweep of experiment id's regeneration command in
// EXPERIMENTS.md and the deterministic lines of the section's quoted table:
// the trimmed, non-empty lines of every code block in the section that is
// not a command.
func quotedTable(t *testing.T, doc, id string) (SweepConfig, []string) {
	t.Helper()
	start := strings.Index(doc, "\n## "+id+" ")
	if start < 0 {
		t.Fatalf("no section %q", id)
	}
	section := doc[start+1:]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	cmd := regexp.MustCompile(`-experiment ` + id + ` -sizes ([0-9,]+) -seeds ([0-9]+)`).FindStringSubmatch(section)
	if cmd == nil {
		t.Fatalf("section %s has no regeneration command", id)
	}
	var cfg SweepConfig
	for _, s := range strings.Split(cmd[1], ",") {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Sizes = append(cfg.Sizes, n)
	}
	seeds, err := strconv.Atoi(cmd[2])
	if err != nil {
		t.Fatal(err)
	}
	for s := 1; s <= seeds; s++ {
		cfg.Seeds = append(cfg.Seeds, uint64(s))
	}
	var quoted []string
	for i, block := range strings.Split(section, "```") {
		if i%2 == 0 || strings.Contains(block, "go run") {
			continue
		}
		for _, line := range strings.Split(block, "\n") {
			line = strings.TrimSpace(line)
			if line != "" && !strings.HasSuffix(line, "n/a (async)") {
				quoted = append(quoted, line)
			}
		}
	}
	if len(quoted) == 0 {
		t.Fatalf("section %s quotes no table", id)
	}
	return cfg, quoted
}
