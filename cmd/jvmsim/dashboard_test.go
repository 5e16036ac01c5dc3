package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/scenarios"
)

// campaignMetrics runs a small all-family campaign on the built binary
// with a cache (so the dump carries process-wide cache traffic) and
// returns the path of its -metrics dump.
func campaignMetrics(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.json")
	if _, code := runBin(t, nil, "-scale", "100", "-cache-dir", filepath.Join(dir, "cache"),
		"-metrics", metrics, "all"); code != harness.ExitComplete {
		t.Fatalf("campaign exited %d", code)
	}
	return metrics
}

// TestDashboardPanels: the text dashboard has one panel per scenario
// family, in sorted order, then the process panel.
func TestDashboardPanels(t *testing.T) {
	out, code := runBin(t, nil, "dashboard", "-metrics", campaignMetrics(t))
	if code != harness.ExitComplete {
		t.Fatalf("dashboard exited %d", code)
	}
	// A panel is a title line underlined by dashes of the same length.
	var panels []string
	lines := strings.Split(out, "\n")
	for i := 1; i < len(lines); i++ {
		if title := lines[i-1]; title != "" && lines[i] == strings.Repeat("-", len(title)) {
			panels = append(panels, title)
		}
	}
	want := append(scenarios.Families(), "process")
	if !reflect.DeepEqual(panels, want) {
		t.Fatalf("panels %q, want %q\n%s", panels, want, out)
	}
	if !strings.HasPrefix(out, "# Campaign dashboard — jvmsim metrics\n") {
		t.Fatalf("header: %q", lines[0])
	}
}

// TestDashboardHTML: -html writes a non-empty page and -o moves the
// text panels off stdout.
func TestDashboardHTML(t *testing.T) {
	metrics := campaignMetrics(t)
	dir := t.TempDir()
	html, text := filepath.Join(dir, "dash.html"), filepath.Join(dir, "dash.txt")
	out, code := runBin(t, nil, "dashboard", "-metrics", metrics, "-o", text, "-html", html)
	if code != harness.ExitComplete {
		t.Fatalf("dashboard exited %d", code)
	}
	if out != "" {
		t.Fatalf("stdout with -o: %q", out)
	}
	for _, p := range []string{html, text} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Fatalf("%s: %v (empty or missing)", p, err)
		}
	}
}

// TestDashboardUsageErrors: a missing -metrics flag, a missing file and a
// dump telemetry.ReadDump rejects all exit 2 without output.
func TestDashboardUsageErrors(t *testing.T) {
	dir := t.TempDir()
	badSchema := filepath.Join(dir, "schema.json")
	if err := os.WriteFile(badSchema, []byte(`{"schema":"other/v0","families":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	notJSON := filepath.Join(dir, "garbage.json")
	if err := os.WriteFile(notJSON, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"dashboard"},
		{"dashboard", "-metrics", filepath.Join(dir, "absent.json")},
		{"dashboard", "-metrics", badSchema},
		{"dashboard", "-metrics", notJSON},
		{"dashboard", "-ledger", "x.json"},
	} {
		out, code := runBin(t, nil, args...)
		if code != harness.ExitUsage || out != "" {
			t.Errorf("%v: exit %d, stdout %q; want exit %d and no output", args, code, out, harness.ExitUsage)
		}
	}
}
