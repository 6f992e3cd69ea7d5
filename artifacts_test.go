package mxmap_test

import (
	"bytes"
	"encoding/json"
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
// results/ holds. Every results/ file a doc names must be one git
// tracks, not one .gitignore silently drops; every tracked file must be
// named by some doc (no orphan artifact); every tracked ledger —
// everything but the bench/ reports, BENCH_e2e_*.json, which are
// measurements — must be named in some _test.go, the test that compares
// it on every run (internal/ledger); and every phase of a ledger that
// is an array of phases must be named in some _test.go too, since
// -update rewrites phases but never drops one whose test is gone.
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
	pattern := regexp.MustCompile(`\bresults/[\w.-]+\.(json|txt|csv)\b`)
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
		if strings.HasPrefix(name, "BENCH_e2e_") {
			continue
		}
		if !strings.Contains(tests.String(), `"`+name+`"`) {
			t.Errorf("no _test.go names the ledger %s: nothing compares it (see internal/ledger)", path)
		}
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var phases []struct {
			Phase string `json:"phase"`
		}
		if json.Unmarshal(text, &phases) != nil {
			continue // not an array of phases
		}
		for _, p := range phases {
			if !strings.Contains(tests.String(), `"`+p.Phase+`"`) {
				t.Errorf("%s keeps phase %q, which no _test.go names: cut it by hand (-update never drops a phase)", path, p.Phase)
			}
		}
	}
}

// TestCitedBenchKeysResolve holds the docs' pointers into the benchmark
// reports to the reports: a backticked `prNN` or `prNN.key` in a
// paragraph of README.md, DESIGN.md or ROADMAP.md that cites a
// results/BENCH_e2e_*.json must be a key path (dot-separated object
// keys) of the citation nearest to it.
func TestCitedBenchKeysResolve(t *testing.T) {
	cite := regexp.MustCompile(`\bresults/BENCH_e2e_[\w.-]+\.json\b`)
	ref := regexp.MustCompile("`(pr\\d+(?:\\.[\\w-]+)*)`")
	reports := make(map[string]map[string]any)
	report := func(path string) map[string]any {
		if r, ok := reports[path]; ok {
			return r
		}
		var r map[string]any
		text, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(text, &r)
		}
		if err != nil {
			t.Errorf("%s: %v", path, err)
		}
		reports[path] = r
		return r
	}
	// gap is how far apart two spans of a paragraph are.
	gap := func(a, b []int) int { return max(a[0]-b[1], b[0]-a[1]) }
	resolved := 0
	for _, doc := range []string{"README.md", "DESIGN.md", "ROADMAP.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, para := range strings.Split(string(text), "\n\n") {
			cites := cite.FindAllStringIndex(para, -1)
			if len(cites) == 0 {
				continue
			}
			for _, m := range ref.FindAllStringSubmatchIndex(para, -1) {
				near := cites[0]
				for _, c := range cites[1:] {
					if gap(c, m) < gap(near, m) {
						near = c
					}
				}
				path, keys := para[near[0]:near[1]], para[m[2]:m[3]]
				var v any = report(path)
				for _, k := range strings.Split(keys, ".") {
					obj, _ := v.(map[string]any)
					v = obj[k]
				}
				if v == nil {
					t.Errorf("%s cites `%s` beside %s, which has no such key", doc, keys, path)
				}
				resolved++
			}
		}
	}
	if resolved == 0 {
		t.Error("no doc cites a key of a benchmark report: the citation pattern is stale")
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
	"ha.Config.Now":                          "clock seam",
	"serve.ServiceConfig.Now":                "clock seam",
	"ha.Config.Jitter":                       "jitter seam",
	"ha.Config.ReprobeBase":                  "frozen-clock re-probe schedule (BENCH_ha)",
	"ha.Config.ReprobeMax":                   "frozen-clock re-probe schedule (BENCH_ha)",
	"dns.Client.RetryBackoff":                "loss chaos tests shrink the delay",
	"dns.Client.UDPSize":                     "EDNS0 experiment (edns_test.go)",
	"dns.Client.Retries":                     "NewClient's default; transport and chaos tests pin the attempt count",
	"dns.Client.Server":                      "NewClient's argument, the one way a non-test caller builds a client",
	"dns.IterativeResolver.Timeout":          "dead-upstream tests shorten the per-exchange wait",
	"dns.ServerConfig.ReadTimeout":           "slowloris and drain tests set the idle-read deadline",
	"dns.ServerConfig.TCPQueryBudget":        "budget-close tests pin a three-query budget",
	"scan.Collector.Concurrency":             "chaos tests pin the fan-out",
	"scan.Collector.Retry":                   "chaos tests pin attempts and backoff (RetryPolicy)",
	"scan.Collector.ScanTimeout":             "chaos tests shorten blackhole scans",
	"scan.RetryPolicy.Attempts":              "chaos and retry tests pin the attempt count",
	"scan.RetryPolicy.BaseBackoff":           "chaos tests shrink the delay",
	"scan.RetryPolicy.MaxBackoff":            "chaos tests shrink the delay",
	"scan.RetryPolicy.Budget":                "budget-exhaustion tests (FAULTS)",
	"serve.Config.Gate":                      "test barrier holding requests at a deterministic point",
	"smtp.Config.MaxConns":                   "admission tests pin a two-connection cap",
	"world.FlatConfig.Corpus":                "read back by bench/ and the digest tests; every flat world is the .com corpus",
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
// declares it, or is explained in optionsWithoutCaller. A literal's key
// sets the field of the literal's type where the syntax names it
// (pkg.T{…}, &pkg.T{…}, T{…} inside its package, or the element type of
// a slice or map literal that elides it). A key of another literal, and
// a selector assignment, set every field of that name: conservative. So
// an excuse may name a field such a same-named setter covers, and only a
// typed setter makes one stale.
func TestEveryOptionHasACaller(t *testing.T) {
	declared := make(map[string]string) // pkg.Type.Field → declaring file
	setIn := make(map[string][]string)  // pkg.Type.Field, or a bare field name → files that set one
	parseNonTestSources(t, parser.SkipObjectResolution, func(path string, file *ast.File) {
		pkg := filepath.Base(filepath.Dir(path))
		imports := make(map[string]string) // name in this file → package directory name
		for _, imp := range file.Imports {
			dir := filepath.Base(strings.Trim(imp.Path.Value, `"`))
			if imp.Name != nil {
				imports[imp.Name.Name] = dir
			} else {
				imports[dir] = dir
			}
		}
		typeName := func(x ast.Expr) string {
			if star, ok := x.(*ast.StarExpr); ok {
				x = star.X
			}
			switch x := x.(type) {
			case *ast.Ident:
				return pkg + "." + x.Name
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
					return imports[id.Name] + "." + x.Sel.Name
				}
			}
			return ""
		}
		elided := make(map[*ast.CompositeLit]string) // element literal → its slice's or map's element type
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
			case *ast.CompositeLit:
				typ, elem := elided[n], ""
				switch lt := n.Type.(type) {
				case nil:
				case *ast.ArrayType:
					elem = typeName(lt.Elt)
				case *ast.MapType:
					elem = typeName(lt.Value)
				default:
					typ = typeName(lt)
				}
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							key := id.Name
							if typ != "" {
								key = typ + "." + id.Name
							}
							setIn[key] = append(setIn[key], path)
						}
						elt = kv.Value
					}
					if u, ok := elt.(*ast.UnaryExpr); ok && u.Op == token.AND {
						elt = u.X
					}
					if lit, ok := elt.(*ast.CompositeLit); ok && lit.Type == nil && elem != "" {
						elided[lit] = elem
					}
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
		called, named := false, false
		for _, path := range setIn[field] {
			called = called || path != declared[field]
		}
		for _, path := range setIn[field[strings.LastIndex(field, ".")+1:]] {
			named = named || path != declared[field]
		}
		_, excused := optionsWithoutCaller[field]
		switch {
		case !called && !named && !excused:
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
	"mxmap/internal/leaktest":        "test support: the goroutine-leak gate the TestMain of dns and dataset runs",
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
	"dataset.Read":     "the io.Reader twin of Snapshot.WriteTo: FuzzRead's entry point and the differential oracle of Stream",
	"certs.SelfSigned": "the one-step twin of DrawSelfSigned and Make, beside CA.Issue: the world generators draw in batches, and TestDraftMatchesIssue holds the two steps to it",
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

// TestVerifyRecipesNameRealTests keeps the verify skill's recipes
// meaning what they say: every -run, -bench and -fuzz pattern in it
// (but '^$', "none") is a |-list of regexps, and each must match some
// Test, Benchmark or Fuzz function in the tree. A pattern that matches
// nothing makes `go test` run nothing and pass.
func TestVerifyRecipesNameRealTests(t *testing.T) {
	skill, err := os.ReadFile(".claude/skills/verify/SKILL.md")
	if err != nil {
		t.Fatal(err)
	}
	funcs := testFileFuncs(t)
	isTest := regexp.MustCompile(`^(Test|Benchmark|Fuzz)([^a-z]|$)`)
	flag := regexp.MustCompile(`-(run|bench|fuzz)(?:=|\s+)('[^']*'|"[^"]*"|[^\s'"]+)`)
	for _, m := range flag.FindAllStringSubmatch(string(skill), -1) {
		pattern := strings.Trim(m[2], `'"`)
		if pattern == "^$" {
			continue
		}
		// A slash starts the subtest levels; the first names functions.
		for _, alt := range strings.Split(strings.SplitN(pattern, "/", 2)[0], "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("verify skill: -%s %s: %v", m[1], pattern, err)
				continue
			}
			found := false
			for _, fn := range funcs {
				found = found || isTest.MatchString(fn) && re.MatchString(fn)
			}
			if !found {
				t.Errorf("verify skill: -%s %s: %q matches no Test, Benchmark or Fuzz function", m[1], pattern, alt)
			}
		}
	}
}

// testFileFuncs names every top-level function declared in a _test.go
// file of the tree.
func testFileFuncs(t *testing.T) []string {
	t.Helper()
	var funcs []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				funcs = append(funcs, fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

// TestDocsNameRealTests keeps README.md and DESIGN.md pointing at tests
// that exist: every code span that starts with a Test, Benchmark or
// Fuzz name names a function in a _test.go file. A /subtest part is
// ignored, a trailing * is a prefix glob, and one {a,b} group stands
// for each of its names.
func TestDocsNameRealTests(t *testing.T) {
	declared := make(map[string]bool)
	for _, fn := range testFileFuncs(t) {
		declared[fn] = true
	}
	resolves := func(name string) bool {
		if prefix, glob := strings.CutSuffix(name, "*"); glob {
			for fn := range declared {
				if strings.HasPrefix(fn, prefix) {
					return true
				}
			}
			return false
		}
		return declared[name]
	}
	span := regexp.MustCompile("`((?:Test|Benchmark|Fuzz)(?:[^a-z`][^`]*)?)`")
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range span.FindAllStringSubmatch(string(raw), -1) {
			name, _, _ := strings.Cut(m[1], "/")
			names := []string{name}
			if head, rest, ok := strings.Cut(name, "{"); ok {
				alts, tail, _ := strings.Cut(rest, "}")
				names = names[:0]
				for _, alt := range strings.Split(alts, ",") {
					names = append(names, head+alt+tail)
				}
			}
			for _, n := range names {
				if !resolves(n) {
					t.Errorf("%s: `%s`: %s names no function in a _test.go file", doc, m[1], n)
				}
			}
		}
	}
}

// TestDocsNameRealIdentifiers is the code twin of TestDocsNameRealTests:
// every code span in README.md or DESIGN.md that is `pkg.Name`,
// `pkg.Name()` or `pkg.Name.Member`, where pkg is a directory under
// internal/, names a top-level declaration (a method included) in that
// directory's non-test sources, and Member a field or method of the
// type Name (an embedded field's members count).
func TestDocsNameRealIdentifiers(t *testing.T) {
	pkgs := make(map[string]bool)
	declared := make(map[string]bool)   // pkg.Name and pkg.Type.Member
	embeds := make(map[string][]string) // pkg.Type → pkg.Embedded
	parseNonTestSources(t, parser.SkipObjectResolution, func(path string, file *ast.File) {
		dir := filepath.ToSlash(filepath.Dir(path))
		if !strings.HasPrefix(dir, "internal/") {
			return
		}
		pkg := filepath.Base(dir)
		pkgs[pkg] = true
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				// A method is a top-level declaration too: docs name
				// `world.StartDNS` as well as `world.World.StartDNS`.
				declared[pkg+"."+d.Name.Name] = true
				if d.Recv != nil {
					declared[pkg+"."+typeName(d.Recv.List[0].Type)+"."+d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.ValueSpec:
						for _, id := range sp.Names {
							declared[pkg+"."+id.Name] = true
						}
					case *ast.TypeSpec:
						typ := pkg + "." + sp.Name.Name
						declared[typ] = true
						var members []*ast.Field
						switch st := sp.Type.(type) {
						case *ast.StructType:
							members = st.Fields.List
						case *ast.InterfaceType:
							members = st.Methods.List
						}
						for _, f := range members {
							if len(f.Names) == 0 {
								embedded := typeName(f.Type)
								declared[typ+"."+embedded] = true
								embeds[typ] = append(embeds[typ], pkg+"."+embedded)
							}
							for _, id := range f.Names {
								declared[typ+"."+id.Name] = true
							}
						}
					}
				}
			}
		}
	})
	var hasMember func(typ, member string) bool
	hasMember = func(typ, member string) bool {
		if declared[typ+"."+member] {
			return true
		}
		for _, e := range embeds[typ] {
			if hasMember(e, member) {
				return true
			}
		}
		return false
	}
	// Go names are MixedCaps: a span with an underscore is a benchmark
	// metric (`core.pass_a_s`), which TestCitedBenchKeysResolve and
	// bench/ own.
	span := regexp.MustCompile("`([a-z][a-z0-9]*)\\.([A-Za-z][A-Za-z0-9]*)(?:\\.([A-Za-z][A-Za-z0-9]*))?(?:\\(\\))?`")
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(raw), "\n") {
			for _, m := range span.FindAllStringSubmatch(line, -1) {
				pkg, name, member := m[1], m[2], m[3]
				switch {
				case !pkgs[pkg]:
				case !declared[pkg+"."+name]:
					t.Errorf("%s:%d: %s: internal/%s declares no %s", doc, i+1, m[0], pkg, name)
				case member != "" && !hasMember(pkg+"."+name, member):
					t.Errorf("%s:%d: %s: %s.%s has no field or method %s", doc, i+1, m[0], pkg, name, member)
				}
			}
		}
	}
}

// typeName is the name of the type expression x: a receiver's or an
// embedded field's type, pointer, package qualifier and type
// parameters dropped.
func typeName(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.StarExpr:
		return typeName(x.X)
	case *ast.IndexExpr:
		return typeName(x.X)
	case *ast.IndexListExpr:
		return typeName(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.Ident:
		return x.Name
	}
	return ""
}

// goroutineOwners lists every go statement in a non-test file outside
// bench/: the file, the function it sits in (Type.Method for a
// method), and what ends the goroutine it starts. A file and function
// with two statements is listed twice.
var goroutineOwners = []struct{ file, fn, owner string }{
	{"cmd/mxlb/main.go", "main", "srv.Serve returns when main's srv.Shutdown drains the front after a signal"},
	{"cmd/mxlb/main.go", "main", "b.Run returns when the signal context is cancelled (sigctx's stop, deferred)"},
	{"cmd/mxserve/main.go", "main", "srv.Serve returns when main's srv.Shutdown drains the server after a signal"},
	{"cmd/mxserve/main.go", "main", "returns when svc.Load does: one bounded load, which process exit cuts short"},
	{"cmd/worldgen/main.go", "serveWorld", "ListenAndServe returns after srv.Shutdown; serveWorld reads errc until it does"},
	{"internal/dataset/dataset.go", "walkLines", "decodeAhead returns at end of input or when walkLines' deferred close(stop) asks it to; the defer drains filled until decodeAhead closes it"},
	{"internal/dataset/diff.go", "streamKeys", "the key walk returns at the end of its pass or when keySeq.abort closes stop"},
	{"internal/dataset/file.go", "gzipThrough", "h.compress returns once gzipThrough closes h.full; gzipThrough waits on h.done"},
	{"internal/dns/server.go", "Server.ListenAndServe", "ServeUDP returns when Shutdown or Close releases the socket; ListenAndServe waits for both serve loops"},
	{"internal/dns/server.go", "Server.ListenAndServe", "ServeTCP returns when Shutdown or Close releases the listener; ListenAndServe waits for both serve loops"},
	{"internal/dns/server.go", "Server.ServeUDP", "each worker returns when the socket is closed (Shutdown's drain or Close); ServeUDP waits on wg"},
	{"internal/dns/transport.go", "newTransportConn", "readLoop returns when its conn's Read fails: the client closes the conn, or the socket dies"},
	{"internal/overload/server.go", "Server.Shutdown", "returns when s.wg does: every session has ended, drained or hard-closed by Shutdown"},
	{"internal/overload/server.go", "Server.admit", "session returns when its connection ends; Shutdown closes what the drain budget leaves and waits on s.wg"},
	{"internal/parallel/parallel.go", "Run", "each worker returns when the shared index passes n; Run waits on wg"},
	{"internal/scan/engine.go", "engine.claimLoop", "each worker returns when the cursor passes n; claimLoop waits on wg"},
	{"internal/scan/fleet.go", "closeWriters", "returns when its ShardWriter's Close does; closeWriters waits on wg"},
	{"internal/sigctx/sigctx.go", "WithInterrupt", "returns on the first signal or when the returned stop closes done"},
	{"internal/world/dnsinfra.go", "DNSInfra.serve", "ServeUDP returns when DNSInfra.Close closes the server; Close waits on inf.serving"},
	{"internal/world/dnsinfra.go", "DNSInfra.serve", "ServeTCP returns when DNSInfra.Close closes the server; Close waits on inf.serving"},
	{"internal/world/flat.go", "flatDialer.DialContext", "srv.Serve returns after its oneShotListener's one Accept; the session ends when the caller closes the pipe"},
	{"internal/world/serve.go", "World.StartSMTP", "srv.Serve returns when Fleet.Close hard-stops the server; Close waits on f.serving"},
}

// TestEveryGoStatementHasAnOwner holds goroutineOwners to the tree: a go
// statement it does not list fails, and so does an entry no statement
// answers. A goroutine without a named end is a leak the package's
// leaktest gate catches only when a test happens to start it.
func TestEveryGoStatementHasAnOwner(t *testing.T) {
	type site struct{ file, fn string }
	found := make(map[site]int)
	parseNonTestSources(t, parser.SkipObjectResolution, func(path string, file *ast.File) {
		path = filepath.ToSlash(path)
		if strings.HasPrefix(path, "bench/") {
			return
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil {
				name = typeName(fn.Recv.List[0].Type) + "." + name
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				if _, ok := n.(*ast.GoStmt); ok {
					found[site{path, name}]++
				}
				return true
			})
		}
	})
	listed := make(map[site]int)
	for _, o := range goroutineOwners {
		if o.owner == "" {
			t.Errorf("%s %s: the entry names no owner", o.file, o.fn)
		}
		listed[site{o.file, o.fn}]++
	}
	for s, n := range found {
		if listed[s] < n {
			t.Errorf("%s %s: %d go statements, %d listed in goroutineOwners: name what ends each goroutine", s.file, s.fn, n, listed[s])
		}
	}
	for s, n := range listed {
		if found[s] < n {
			t.Errorf("goroutineOwners lists %d go statements in %s %s, which holds %d: drop the stale entry", n, s.file, s.fn, found[s])
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
