package mxmap_test

import (
	"bytes"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestCitedResultsAreTracked keeps docs, git and tests in step on what
// results/ holds. Every results/*.json a doc names must be a file git
// tracks, not one .gitignore silently drops; every tracked file must be
// named by some doc (no orphan artifact); and every tracked ledger —
// everything but the bench/ reports, BENCH_e2e_*.json, which are
// measurements — must be named in some _test.go, the test that compares
// it on every run (internal/ledger).
func TestCitedResultsAreTracked(t *testing.T) {
	out, err := exec.Command("git", "ls-files", "results").Output()
	if err != nil {
		t.Skipf("not a git checkout, or no git: %v", err)
	}
	tracked := make(map[string]bool)
	for _, path := range strings.Fields(string(out)) {
		tracked[path] = true
	}
	cited := make(map[string]bool)
	pattern := regexp.MustCompile(`\bresults/[\w.-]+\.json\b`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "bench/README.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range pattern.FindAllString(string(text), -1) {
			cited[path] = true
			if !tracked[path] {
				t.Errorf("%s cites %s, which git does not track (whitelist it in .gitignore and commit it, or stop citing it)", doc, path)
			}
		}
	}

	var tests strings.Builder
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		text, err := os.ReadFile(path)
		tests.Write(text)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for path := range tracked {
		if !cited[path] {
			t.Errorf("git tracks %s but no doc cites it (cite it, or delete the orphan)", path)
		}
		name := filepath.Base(path)
		if !strings.HasPrefix(name, "BENCH_e2e_") && !strings.Contains(tests.String(), `"`+name+`"`) {
			t.Errorf("no _test.go names the ledger %s: nothing compares it (see internal/ledger)", path)
		}
	}
}

// optionStructs are the option-bearing structs whose names do not end in
// Config, Options or Policy.
var optionStructs = map[string]bool{
	"dns.Client": true, "dns.Transport": true, "dns.IterativeResolver": true,
	"dns.Cache": true, "scan.Collector": true,
}

// optionsWithoutCaller are the options no non-test file outside the
// declaring one sets, each with why it exists all the same.
var optionsWithoutCaller = map[string]string{
	"core.Config.DisableCertGrouping":        "paper ablation, DESIGN §5 (bench_test.go)",
	"core.Config.PreferBannerOverCert":       "paper ablation, DESIGN §5 (bench_test.go)",
	"core.Config.RequireBannerEHLOAgreement": "paper ablation: the strict reading of Figure 3 step 2.2",
	"dns.Cache.Now":                          "clock seam",
	"dns.RRLConfig.Now":                      "clock seam",
	"ha.Config.Now":                          "clock seam",
	"serve.ServiceConfig.Now":                "clock seam",
	"ha.Config.Jitter":                       "jitter seam",
	"ha.Config.ReprobeBase":                  "frozen-clock re-probe schedule (BENCH_ha)",
	"ha.Config.ReprobeMax":                   "frozen-clock re-probe schedule (BENCH_ha)",
	"ha.Config.HedgeFloor":                   "hedge-threshold tests pin the floor",
	"ha.Config.HedgeMinSamples":              "hedge-threshold tests pin the sample gate",
	"dns.Client.RetryBackoff":                "loss chaos tests shrink the delay",
	"dns.Client.UDPSize":                     "EDNS0 experiment (edns_test.go)",
	"dns.IterativeResolver.PrefetchMinHits":  "cache ledgers pin or disable prefetch (BENCH_dns)",
	"dns.RRLConfig.IncludeLoopback":          "flood tests limit loopback sources, exempt otherwise",
	"dns.ServerConfig.DisableCache":          "differential seam: cached answers ≡ uncached ones",
	"dns.ServerConfig.TCPQueryBudget":        "budget-close tests pin a three-query budget",
	"scan.Collector.Concurrency":             "chaos tests pin the fan-out",
	"scan.Collector.ScanTimeout":             "chaos tests shorten blackhole scans",
	"scan.RetryPolicy.BaseBackoff":           "chaos tests shrink the delay",
	"scan.RetryPolicy.MaxBackoff":            "chaos tests shrink the delay",
	"scan.RetryPolicy.Budget":                "budget-exhaustion tests (FAULTS)",
	"serve.Config.Gate":                      "test barrier holding requests at a deterministic point",
	"serve.Config.MaxRequests":               "budget-close tests pin a small budget",
	"serve.Config.RetryAfterSecs":            "retryafter_test.go pins the advertised value",
	"world.Config.EnableIPv6":                "dual-stack experiment (ipv6_test.go)",
	"world.Config.SelfISPs":                  "small test worlds shrink the roster",
	"world.Config.TailProviders":             "small test worlds shrink the roster",
}

// parseNonTestSources parses every non-test .go file under internal/,
// cmd/ and bench/ — the code a caller has to live in to count — and
// hands each to visit.
func parseNonTestSources(t *testing.T, mode parser.Mode, visit func(path string, file *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd", "bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			file, err := parser.ParseFile(fset, path, nil, mode)
			if err == nil {
				visit(path, file)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestEveryOptionHasACaller holds the rule that an option exists when a
// non-test caller sets it: every exported field of a struct named
// *Config, *Options or *Policy (or listed in optionStructs) under
// internal/, cmd/ and bench/ is a composite-literal key or the target of
// a selector assignment in some non-test file other than the one that
// declares it, or is explained in optionsWithoutCaller. Syntax only, so
// conservative: a field of another type that shares the name counts.
func TestEveryOptionHasACaller(t *testing.T) {
	declared := make(map[string]string) // pkg.Type.Field → declaring file
	setIn := make(map[string][]string)  // field name → files that set one
	parseNonTestSources(t, parser.SkipObjectResolution, func(path string, file *ast.File) {
		pkg := filepath.Base(filepath.Dir(path))
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				name := pkg + "." + n.Name.Name
				if !ok || !(optionStructs[name] || strings.HasSuffix(name, "Config") ||
					strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Policy")) {
					break
				}
				for _, f := range st.Fields.List {
					for _, id := range f.Names {
						if id.IsExported() {
							declared[name+"."+id.Name] = path
						}
					}
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					setIn[id.Name] = append(setIn[id.Name], path)
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						setIn[sel.Sel.Name] = append(setIn[sel.Sel.Name], path)
					}
				}
			}
			return true
		})
	})
	fields := make([]string, 0, len(declared))
	for field := range declared {
		fields = append(fields, field)
	}
	sort.Strings(fields)
	for _, field := range fields {
		called := false
		for _, path := range setIn[field[strings.LastIndex(field, ".")+1:]] {
			called = called || path != declared[field]
		}
		_, excused := optionsWithoutCaller[field]
		switch {
		case !called && !excused:
			t.Errorf("%s (%s): no non-test file sets it; make it a constant, or say in optionsWithoutCaller why it stays", field, declared[field])
		case called && excused:
			t.Errorf("%s has a caller now: drop it from optionsWithoutCaller", field)
		}
	}
	for field := range optionsWithoutCaller {
		if declared[field] == "" {
			t.Errorf("optionsWithoutCaller names %s, which is not a declared option", field)
		}
	}
}

// packagesWithoutCaller are the internal packages no non-test file under
// cmd/, bench/ or internal/ imports, each with why it exists all the same.
var packagesWithoutCaller = map[string]string{
	"mxmap/internal/ledger":          "test support: compares and rewrites the exact-counter ledgers in results/",
	"mxmap/internal/benchdata":       "test support: the synthetic corpora the root benchmarks and equivalence tests share",
	"mxmap/internal/serve/servetest": "test support: the HTTP test client and two-snapshot fixture serve and ha share",
}

// TestEveryPackageHasACaller is the package-level twin of
// TestEveryOptionHasACaller: every package under internal/ is imported
// by a non-test file under cmd/, bench/ or another internal/ package, or
// is explained in packagesWithoutCaller. A package only its own tests
// and examples/ import is a subsystem the measurement never runs.
func TestEveryPackageHasACaller(t *testing.T) {
	declared := make(map[string]bool) // import path of every internal package
	imported := make(map[string]bool) // import paths non-test files name
	parseNonTestSources(t, parser.ImportsOnly, func(path string, file *ast.File) {
		if dir := filepath.ToSlash(filepath.Dir(path)); strings.HasPrefix(dir, "internal/") {
			declared["mxmap/"+dir] = true
		}
		for _, imp := range file.Imports {
			imported[strings.Trim(imp.Path.Value, `"`)] = true
		}
	})
	for pkg := range declared {
		_, excused := packagesWithoutCaller[pkg]
		switch {
		case !imported[pkg] && !excused:
			t.Errorf("%s: no non-test file under cmd/, bench/ or internal/ imports it; delete it, or say in packagesWithoutCaller why it stays", pkg)
		case imported[pkg] && excused:
			t.Errorf("%s has a caller now: drop it from packagesWithoutCaller", pkg)
		}
	}
	for pkg := range packagesWithoutCaller {
		if !declared[pkg] {
			t.Errorf("packagesWithoutCaller names %s, which is not a package under internal/", pkg)
		}
	}
}

// funcsWithoutCaller are the exported package-level functions no non-test
// file names, each with why it exists all the same.
var funcsWithoutCaller = map[string]string{
	"dataset.Read": "the io.Reader twin of Snapshot.WriteTo: FuzzRead's entry point and the differential oracle of Stream",
}

// TestEveryExportedFuncHasACaller is the function-level twin of the two
// tests above: every exported package-level function declared in a
// non-test file under internal/ (the test-support packages exempt) is
// named in some non-test file under internal/, cmd/ or bench/ — bare in
// its own package, as pkg.Func elsewhere — other than by a function
// declaration, or is explained in funcsWithoutCaller. Syntax only, so
// conservative: a variable called like the package counts, and methods
// are out of scope (an interface may be their only caller).
func TestEveryExportedFuncHasACaller(t *testing.T) {
	declared := make(map[string]string) // pkg.Func → declaring file
	named := make(map[string]int)       // pkg.Name → mentions that declare no function
	parseNonTestSources(t, parser.SkipObjectResolution, func(path string, file *ast.File) {
		dir := filepath.ToSlash(filepath.Dir(path))
		pkg := file.Name.Name
		_, exempt := packagesWithoutCaller["mxmap/"+dir]
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				named[pkg+"."+n.Name.Name]-- // its name, counted below, is no mention
				if n.Recv == nil && n.Name.IsExported() && strings.HasPrefix(dir, "internal/") && !exempt {
					declared[pkg+"."+n.Name.Name] = path
				}
			case *ast.SelectorExpr:
				named[pkg+"."+n.Sel.Name]-- // x.Name names nothing of this package
				if x, ok := n.X.(*ast.Ident); ok {
					named[x.Name+"."+n.Sel.Name]++
				}
			case *ast.Ident:
				named[pkg+"."+n.Name]++
			}
			return true
		})
	})
	funcs := make([]string, 0, len(declared))
	for fn := range declared {
		funcs = append(funcs, fn)
	}
	sort.Strings(funcs)
	for _, fn := range funcs {
		called := named[fn] > 0
		_, excused := funcsWithoutCaller[fn]
		switch {
		case !called && !excused:
			t.Errorf("%s (%s): no non-test file calls it; delete it, or say in funcsWithoutCaller why it stays", fn, declared[fn])
		case called && excused:
			t.Errorf("%s has a caller now: drop it from funcsWithoutCaller", fn)
		}
	}
	for fn := range funcsWithoutCaller {
		if declared[fn] == "" {
			t.Errorf("funcsWithoutCaller names %s, which is not a declared function", fn)
		}
	}
}

// TestGofmt holds every .go file in the tree to gofmt's formatting
// (go/format is the same printer), so tier-1 fails on what `gofmt -l .`
// would list. Dot-directories hold build output, not source.
func TestGofmt(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if formatted, err := format.Source(src); err != nil {
			t.Errorf("%s: %v", path, err)
		} else if !bytes.Equal(src, formatted) {
			t.Errorf("%s is not gofmt-formatted: run gofmt -w %s", path, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
