package cli

import (
	"flag"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/agents/registry"
	"repro/internal/faultinject"
	"repro/internal/jit"
	"repro/internal/resultcache"
)

// parse registers tool's shared flags on a fresh flag set and parses args.
func parse(t *testing.T, tool string, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet(tool, flag.ContinueOnError)
	f := Register(fs, tool)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestAddFlagAndValidate(t *testing.T) {
	f := parse(t, "jprof", "-agent", "sampler")
	if f.Agent != "sampler" {
		t.Fatalf("agent = %q", f.Agent)
	}
	if err := registry.Validate(f.Agent); err != nil {
		t.Fatal(err)
	}
	if err := registry.Validate("warp"); err == nil {
		t.Fatal("unknown agent validated")
	}
	// Default applies when the flag is absent.
	if def := parse(t, "jvmsim"); def.Agent != "none" {
		t.Fatalf("default = %q", def.Agent)
	}
}

func TestAddListFlag(t *testing.T) {
	f := parse(t, "tables", "-agents", "ipa,bic")
	agents, err := registry.ParseList(f.Agent)
	if err != nil {
		t.Fatal(err)
	}
	if len(agents) != 2 || agents[1] != "bic" {
		t.Fatalf("agents = %v", agents)
	}
}

// TestAddEngineFlag: the registered flag defaults to interp and round-
// trips through ParseEngine, the per-command validation convention.
func TestAddEngineFlag(t *testing.T) {
	f := parse(t, "jprof")
	if e, err := jit.ParseEngine(f.Engine); err != nil || e != jit.EngineInterp {
		t.Fatalf("default engine = %q (%v)", f.Engine, err)
	}
	f = parse(t, "jprof", "-engine", "auto")
	if e, _ := jit.ParseEngine(f.Engine); e != jit.EngineAuto {
		t.Fatalf("parsed engine = %v", e)
	}
}

func TestFlagsPrecedence(t *testing.T) {
	newFlags := func(args ...string) *Flags { return parse(t, "tables", args...) }
	envDir := t.TempDir()
	flagDir := t.TempDir()

	t.Setenv(resultcache.EnvVar, "")
	if c, err := newFlags().openCache(); err != nil || c != nil {
		t.Fatalf("no flags, no env: cache %v err %v, want off", c, err)
	}
	if _, err := newFlags("-cache", "rw").openCache(); err == nil {
		t.Fatal("-cache rw with no directory must error")
	}

	t.Setenv(resultcache.EnvVar, envDir)
	c, err := newFlags().openCache()
	if err != nil || c == nil || c.Dir() != envDir || c.Mode() != resultcache.ModeRW {
		t.Fatalf("env only: cache %v err %v, want rw at %s", c, err, envDir)
	}
	c, err = newFlags("-cache-dir", flagDir).openCache()
	if err != nil || c.Dir() != flagDir {
		t.Fatalf("-cache-dir must beat $%s: got %v err %v", resultcache.EnvVar, c, err)
	}
	c, err = newFlags("-cache", "ro").openCache()
	if err != nil || c.Mode() != resultcache.ModeRO {
		t.Fatalf("explicit -cache ro: got %v err %v", c, err)
	}
	if c, err := newFlags("-cache", "off").openCache(); err != nil || c != nil {
		t.Fatalf("-cache off with env dir: cache %v err %v, want off", c, err)
	}

	t.Setenv(resultcache.EnvVar, "off")
	if c, err := newFlags().openCache(); err != nil || c != nil {
		t.Fatalf("$%s=off: cache %v err %v, want off", resultcache.EnvVar, c, err)
	}
	c, err = newFlags("-cache-dir", flagDir).openCache()
	if err != nil || c == nil || c.Mode() != resultcache.ModeRW {
		t.Fatalf("-cache-dir must override $%s=off: got %v err %v", resultcache.EnvVar, c, err)
	}

	t.Setenv(resultcache.EnvVar, "")
	if _, err := newFlags("-cache-dir", flagDir, "-cache-verify", "-1").openCache(); err == nil {
		t.Fatal("negative -cache-verify accepted")
	}
	if _, err := newFlags("-cache-dir", flagDir, "-cache-max-mb", "-1").openCache(); err == nil {
		t.Fatal("negative -cache-max-mb accepted")
	}
	c, err = newFlags("-cache-dir", flagDir, "-cache-max-mb", "3").openCache()
	if err != nil || c.MaxBytes != 3<<20 {
		t.Fatalf("-cache-max-mb 3: MaxBytes %d err %v", c.MaxBytes, err)
	}
}

// TestOpenConfig: Open maps the shared flags onto one harness.Config and
// rejects a heap configuration that could never collect.
func TestOpenConfig(t *testing.T) {
	t.Setenv(resultcache.EnvVar, "")
	t.Setenv(faultinject.EnvVar, "")
	cfg, err := parse(t, "jvmsim", "-engine", "jit", "-scale", "8", "-parallel", "3",
		"-max-retries", "2", "-heap-nursery", "4096", "-heap-limit", "9").Open()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Opts.Tier != jit.EngineJIT || cfg.Scale != 8 || cfg.Parallelism != 3 || cfg.MaxRetries != 2 ||
		cfg.Opts.Heap.NurseryWords != 4096 || cfg.Opts.Heap.LimitWords != 9 {
		t.Fatalf("config %+v", cfg)
	}
	if cfg.Cache != nil || cfg.Telemetry != nil || cfg.Hook != nil {
		t.Fatal("cache, telemetry or fault hook opened without being asked for")
	}
	if _, err := parse(t, "jvmsim", "-heap-tenured", "5").Open(); err == nil {
		t.Fatal("-heap-tenured without -heap-nursery accepted")
	}
	tables := parse(t, "tables", "-agents", "ipa,spa")
	if _, err := tables.Open(); err != nil || strings.Join(tables.Agents, ",") != "ipa,spa" {
		t.Fatalf("tables agents %v err %v", tables.Agents, err)
	}
}

// TestSearchFlags: `jvmsim search` gets only -scenario, -trace and
// -metrics, and its Open never opens a cache, even with $JVMSIM_CACHE
// set.
func TestSearchFlags(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	t.Setenv(resultcache.EnvVar, dir)
	fs := flag.NewFlagSet("search", flag.ContinueOnError)
	f := Register(fs, "jvmsim search")
	for _, name := range []string{"agent", "engine", "parallel", "cache-dir"} {
		if fs.Lookup(name) != nil {
			t.Errorf("search registers -%s", name)
		}
	}
	cfg, err := f.Open()
	if err != nil || cfg.Cache != nil {
		t.Fatalf("search opened cache %v (err %v)", cfg.Cache, err)
	}
}

// TestRejectRunFlags: a run-only flag the command line set is an error
// for a static mode; flags left at their defaults are not.
func TestRejectRunFlags(t *testing.T) {
	if err := parse(t, "jvmsim", "-scale", "8").RejectRunFlags("-dump"); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-parallel", "1"}, {"-cache-dir", "d"}, {"-cache-verify", "-3"}, {"-trace", "t.json"}, {"-metrics", "m.json"},
		{"-cell-timeout", "5s"}, {"-max-retries", "3"},
		{"-heap-nursery", "64"}, {"-heap-tenured", "5"}, {"-heap-tenure-age", "2"}, {"-heap-limit", "100"},
	} {
		err := parse(t, "jvmsim", args...).RejectRunFlags("-dump")
		if err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("%v: err %v, want a rejection naming %s", args, err, args[0])
		}
	}
}

// TestFinishReportsWriteError: an unwritable -trace or -metrics file is
// Finish's error, so the command exits fatal instead of 0.
func TestFinishReportsWriteError(t *testing.T) {
	t.Setenv(resultcache.EnvVar, "")
	t.Setenv(faultinject.EnvVar, "")
	missing := filepath.Join(t.TempDir(), "missing", "out.json")
	for _, name := range []string{"-trace", "-metrics"} {
		f := parse(t, "jprof", name, missing)
		if _, err := f.Open(); err != nil {
			t.Fatal(err)
		}
		if err := f.Finish(); err == nil {
			t.Errorf("%s into a missing directory: Finish returned nil", name)
		}
	}
	ok := parse(t, "jprof", "-metrics", filepath.Join(t.TempDir(), "m.json"))
	if _, err := ok.Open(); err != nil {
		t.Fatal(err)
	}
	if err := ok.Finish(); err != nil {
		t.Fatal(err)
	}
}
