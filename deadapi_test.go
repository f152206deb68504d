package repro

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// deadAPIAllowlist names the exported identifiers under internal/ that no
// non-test code references, each with the reason it stays.  Keys are
// "<dir under internal/>.<Name>" for package-level identifiers and
// "<dir under internal/>.<Type>.<Method>" for methods.  The list can only
// shrink: an entry that is referenced again, or no longer exists, fails
// TestNoDeadExportedAPI as well.  A reason that starts "public API: <file>"
// must name a document that mentions the identifier.
var deadAPIAllowlist = map[string]string{
	"apps/dt.Run":                        "NAS DT (paper Fig. 4) on the real runtimes; its tests check both backends and the DES skeleton's graph",
	"check.DefaultPCTDepth":              "checker API: the model tests in internal/check drive other packages' protocols with it",
	"check.Exhaust":                      "checker API: the model tests in internal/check drive other packages' protocols with it",
	"check.ReplayChoices":                "checker API: the model tests in internal/check drive other packages' protocols with it",
	"check.RunPCT":                       "checker API: the model tests in internal/check drive other packages' protocols with it",
	"check.SeedsFromEnv":                 "checker API: the model tests in internal/check drive other packages' protocols with it",
	"check.Wait":                         "checker API: the model tests in internal/check drive other packages' protocols with it",
	"check.WaitLabeled":                  "checker API: the model tests in internal/check drive other packages' protocols with it",
	"check.Yield":                        "checker API: the model tests in internal/check drive other packages' protocols with it",
	"cluster.eventHeap.Less":             "implements container/heap.Interface",
	"collective.NewCASBarrier":           "reference barrier the collective tests and the SPTD model compare against",
	"collective.NewCounterBarrier":       "ablation barrier the collective tests compare against",
	"core.ModelChannelTable":             "purecheck-only seam the endpoint model in internal/check drives",
	"core.ModelChannelTable.Endpoint":    "purecheck-only seam the endpoint model in internal/check drives",
	"queue.NewPBQPacked":                 "ablation: the packed-slot PBQ the queue tests compare against",
	"queue.PBQ.MaxPayload":               "payload bound the PBQ model in internal/check asserts against",
	"sched.RandomSteal":                  "ablation 4 (DESIGN.md): the paper's victim policy, the baseline the sched ablation and model compare against",
	"sched.SingleChunk":                  "ablation 4 (DESIGN.md): the paper's allocation mode, the baseline the sched ablation compares against",
	"schedpoint.Set":                     "installs the checker's hooks; only the purecheck model tests call it",
	"shmem.Heap.Extent":                  "the shmem model in internal/check reads allocator extents with it",
	"topology.ParseReorderFile":          "paper input: CrayPAT rank-reorder files (PAPER.md)",
	"topology.PlacementFromReorder":      "paper input: CrayPAT rank-reorder files (PAPER.md)",
	"transport.ChaosFaults":              "fault plan the core, pure and shmem-app chaos suites share",
	"transport.Transport.KillLink":       "link-kill switch the core and transport chaos tests use",
	"transport.Transport.SetPartitioned": "partition switch the core and transport chaos tests use",

	// pure aliases these runtime types, so their methods are the public API
	// even where only tests and users call them.
	"core.Comm.BcastFloat64s":  "public API: docs/API.md lists it among the typed helpers",
	"core.Comm.BcastInt64":     "public API: docs/API.md lists it among the typed helpers",
	"core.Comm.RecvFloat64s":   "public API: docs/API.md lists it among the typed helpers",
	"core.Comm.RecvInit":       "public API: docs/API.md maps MPI_Recv_init onto it, as cmd/mpi2pure does",
	"core.Comm.ReduceFloat64s": "public API: docs/API.md lists it among the typed helpers",
	"core.Comm.SendFloat64s":   "public API: docs/API.md lists it among the typed helpers",
	"core.Comm.SendInit":       "public API: docs/API.md maps MPI_Send_init onto it, as cmd/mpi2pure does",
	"core.Rank.StealStats":     "public API: docs/API.md lists it as the profiling-mode counters",
	"core.Shm.HeapBytes":       "public API: docs/API.md lists it beside Shmem.Rank and Size",
	"core.Shm.Select":          "public API: docs/SHMEM.md documents the selector wait",
	"core.Task.Chunks":         "public API: docs/API.md maps PURE_MAX_TASK_CHUNKS onto it",
	"core.Win.Rget":            "public API: docs/API.md maps MPI_Rget onto it",
	"core.Win.Rput":            "public API: docs/API.md maps MPI_Rput onto it",
}

// apiDecl is one exported identifier declared under internal/.
type apiDecl struct {
	key  string    // allowlist key
	pos  token.Pos // the declaring identifier
	own  []ast.Node
	recv string // receiver type name; empty for package-level identifiers
	name string
	dir  string
}

// apiFile is one parsed non-test source file.
type apiFile struct {
	dir  string
	file *ast.File
}

// TestNoDeadExportedAPI fails on an exported func, type, var, const or
// method declared under internal/ that no non-test Go file in the
// repository (benchmark/, cmd/, examples/ and purecheck-tagged files
// included) references outside its own declaration, unless
// deadAPIAllowlist says why it stays.  References are resolved by syntax
// alone: a package-level identifier counts as used when its package names
// it or another file selects it through an import of that package; a
// method counts as used when any selector anywhere has its name.
func TestNoDeadExportedAPI(t *testing.T) {
	fset := token.NewFileSet()
	files, pkgNames := parseRepo(t, fset)
	decls := exportedInternalDecls(files)
	used := referencedDecls(files, pkgNames, decls)

	var dead []string
	found := make(map[string]bool, len(decls))
	for _, d := range decls {
		found[d.key] = true
		if used[d.key] {
			continue
		}
		if _, ok := deadAPIAllowlist[d.key]; !ok {
			dead = append(dead, fmt.Sprintf("%s: %s", fset.Position(d.pos), d.key))
		}
	}
	var stale []string
	for key, reason := range deadAPIAllowlist {
		if !found[key] {
			stale = append(stale, key+" (no longer declared)")
		} else if used[key] {
			stale = append(stale, key+" (now referenced)")
		}
		if doc, ok := strings.CutPrefix(reason, "public API: "); ok {
			doc, _, _ = strings.Cut(doc, " ")
			name := key[strings.LastIndexByte(key, '.')+1:]
			if text, err := os.ReadFile(doc); err != nil || !strings.Contains(string(text), name) {
				stale = append(stale, fmt.Sprintf("%s (its reason cites %s, which does not mention %s)", key, doc, name))
			}
		}
	}
	sort.Strings(dead)
	sort.Strings(stale)
	for _, s := range dead {
		t.Errorf("unreferenced exported identifier %s: delete it, or allowlist it with a reason", s)
	}
	for _, s := range stale {
		t.Errorf("stale deadAPIAllowlist entry %s: remove it", s)
	}
}

// parseRepo parses every non-test .go file under the repository root,
// skipping testdata and dot directories, and returns them with each
// directory's package name.
func parseRepo(t *testing.T, fset *token.FileSet) ([]apiFile, map[string]string) {
	t.Helper()
	var files []apiFile
	pkgNames := make(map[string]string)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		files = append(files, apiFile{dir: dir, file: f})
		pkgNames[dir] = f.Name.Name
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files, pkgNames
}

// exportedInternalDecls lists the exported identifiers declared under
// internal/.  A type's own declaration includes its methods, so a type
// named only by its methods' receivers is still unreferenced.
func exportedInternalDecls(files []apiFile) []*apiDecl {
	var decls []*apiDecl
	types := make(map[string]*apiDecl) // dir + "." + type name, exported or not
	type method struct {
		dir string
		fn  *ast.FuncDecl
	}
	var methods []method
	for _, af := range files {
		short, ok := strings.CutPrefix(af.dir, "internal/")
		if !ok {
			continue
		}
		add := func(recv string, id *ast.Ident, own ast.Node) *apiDecl {
			key := short + "." + id.Name
			if recv != "" {
				key = short + "." + recv + "." + id.Name
			}
			d := &apiDecl{key: key, pos: id.Pos(), own: []ast.Node{own}, recv: recv, name: id.Name, dir: af.dir}
			if id.IsExported() {
				decls = append(decls, d)
			}
			return d
		}
		for _, decl := range af.file.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv != nil {
					methods = append(methods, method{af.dir, decl})
					add(recvTypeName(decl.Recv.List[0].Type), decl.Name, decl)
				} else {
					add("", decl.Name, decl)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						types[af.dir+"."+spec.Name.Name] = add("", spec.Name, spec)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add("", id, id)
						}
					}
				}
			}
		}
	}
	for _, m := range methods {
		if d := types[m.dir+"."+recvTypeName(m.fn.Recv.List[0].Type)]; d != nil {
			d.own = append(d.own, m.fn)
		}
	}
	return decls
}

// recvTypeName strips pointers and type parameters from a receiver type.
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// referencedDecls reports which decls some non-test file references
// outside their own declarations.
func referencedDecls(files []apiFile, pkgNames map[string]string, decls []*apiDecl) map[string]bool {
	byName := make(map[string][]*apiDecl) // package-level, by dir + "." + name
	byMethod := make(map[string][]*apiDecl)
	for _, d := range decls {
		if d.recv != "" {
			byMethod[d.name] = append(byMethod[d.name], d)
		} else {
			byName[d.dir+"."+d.name] = append(byName[d.dir+"."+d.name], d)
		}
	}
	used := make(map[string]bool)
	mark := func(ds []*apiDecl, at token.Pos) {
		for _, d := range ds {
			if !used[d.key] && !within(d.own, at) {
				used[d.key] = true
			}
		}
	}
	for _, af := range files {
		imports := repoImports(af.file, pkgNames)
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				// A receiver names its type without using it.
				if n.Recv != nil {
					ast.Inspect(n.Type, visit)
					if n.Body != nil {
						ast.Inspect(n.Body, visit)
					}
					return false
				}
			case *ast.SelectorExpr:
				mark(byMethod[n.Sel.Name], n.Sel.Pos())
				if x, ok := n.X.(*ast.Ident); ok {
					if pkgDir, ok := imports[x.Name]; ok {
						mark(byName[pkgDir+"."+n.Sel.Name], n.Sel.Pos())
						return false
					}
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				mark(byName[af.dir+"."+n.Name], n.Pos())
			}
			return true
		}
		ast.Inspect(af.file, visit)
	}
	return used
}

// within reports whether pos lies inside one of nodes.
func within(nodes []ast.Node, pos token.Pos) bool {
	for _, n := range nodes {
		if n.Pos() <= pos && pos < n.End() {
			return true
		}
	}
	return false
}

// unsetConfigAllowlist names the exported option fields that no non-test
// code outside their package writes, each with the reason it stays.  Keys
// are "<package>.<Type>.<Field>".  Like deadAPIAllowlist it can only
// shrink: an entry whose field is written, or no longer declared, fails
// TestEveryConfigFieldIsSet.
var unsetConfigAllowlist = map[string]string{
	"core.Config.Deadline": "deployment setting: docs/ROBUSTNESS.md documents the wall-clock abort",
	"core.Config.Policy":   "paper pillar: rank placement (PAPER.md); pure's custom-placement tests set it",
	"core.Config.Seats":    "paper pillar: custom placement from CrayPAT reorder files (PAPER.md)",

	"mpibase.Config.EagerMax": "cmd/mpi2pure maps it onto Config.SmallMsgMax when it translates a program",

	"sched.Config.ChunkMode": "ablation 4 (DESIGN.md): BenchmarkAblationStealPolicies and the sched model run guided self-scheduling",
	"sched.Config.Policy":    "ablation 4 (DESIGN.md): BenchmarkAblationStealPolicies and the sched model run the NUMA and sticky policies",
	"sched.Config.SocketOf":  "ablation 4 (DESIGN.md): the NUMA-aware policy's socket table",

	"shmemapp.BFSConfig.MailboxCap": "the full-ring tests shrink the mailboxes to drive the drain-and-retry path",
	"shmemapp.HistConfig.OnRound":   "the live-chaos worker prints its per-round proof lines through it",

	"statsd.GenConfig.Keys":    "key-space size: the generator and frame tests in internal/statsd shrink it",
	"statsd.GenConfig.Tagsets": "tagset-pool size: internal/apps/statsd's shared-interner test shrinks it",

	"transport.Config.DialBackoffMax":  "link timing the chaos suites shorten",
	"transport.Config.DialTimeout":     "link timing the chaos suites shorten",
	"transport.Config.DrainTimeout":    "link timing the chaos suites shorten",
	"transport.Config.Faults":          "the link fault plan the chaos suites inject",
	"transport.Config.MaxUnacked":      "resend-window depth the full-window tests shrink",
	"transport.Config.RetryBackoff":    "link timing the chaos suites shorten",
	"transport.Config.RetryBackoffMax": "link timing the chaos suites shorten",
	"transport.Config.RetryBudget":     "link timing the chaos suites shorten",
}

// configField is one exported field of an option struct.
type configField struct {
	key  string // allowlist key
	pos  token.Pos
	dir  string
	typ  string // struct type name
	name string
}

// TestEveryConfigFieldIsSet fails on an exported field of a non-test struct
// type named Config or ...Config outside benchmark/ (the options ROADMAP.md
// counts) that no non-test file outside the field's package writes, unless
// unsetConfigAllowlist says why it stays.  Files in cmd/, examples/ and
// benchmark/ count as writers.  A write is a key in a composite literal
// that names the type (aliases such as pure.Config resolve to the type they
// name) or an assignment to a selector with the field's name.  A literal
// whose type is elided inside a slice or map literal is not seen: a field
// written only that way is reported as unset.
func TestEveryConfigFieldIsSet(t *testing.T) {
	fset := token.NewFileSet()
	files, pkgNames := parseRepo(t, fset)
	fields, aliases := configFields(files, pkgNames)
	keyed, assigned := configWrites(files, pkgNames, aliases)
	t.Logf("%d exported option fields", len(fields))

	var bad []string
	found := make(map[string]bool, len(fields))
	for _, f := range fields {
		found[f.key] = true
		if outside(keyed[f.dir+"."+f.typ+"."+f.name], f.dir) || outside(assigned[f.name], f.dir) {
			if _, ok := unsetConfigAllowlist[f.key]; ok {
				bad = append(bad, fmt.Sprintf("stale unsetConfigAllowlist entry %s (now written): remove it", f.key))
			}
		} else if _, ok := unsetConfigAllowlist[f.key]; !ok {
			bad = append(bad, fmt.Sprintf("%s: option field %s is set by nothing outside its package: delete it, or allowlist it with a reason", fset.Position(f.pos), f.key))
		}
	}
	for key := range unsetConfigAllowlist {
		if !found[key] {
			bad = append(bad, fmt.Sprintf("stale unsetConfigAllowlist entry %s (no longer declared): remove it", key))
		}
	}
	sort.Strings(bad)
	for _, s := range bad {
		t.Error(s)
	}
}

// outside reports whether dirs holds a directory other than dir.
func outside(dirs map[string]bool, dir string) bool {
	for d := range dirs {
		if d != dir {
			return true
		}
	}
	return false
}

// configFields lists the exported fields of the option structs, and returns
// every package-level type alias ("<dir>.<Name>" to the type it names).
func configFields(files []apiFile, pkgNames map[string]string) ([]configField, map[string]string) {
	var fields []configField
	aliases := make(map[string]string)
	for _, af := range files {
		imports := repoImports(af.file, pkgNames)
		for _, decl := range af.file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if ts.Assign.IsValid() {
					if to := typeKey(af.dir, imports, ts.Type); to != "" {
						aliases[af.dir+"."+ts.Name.Name] = to
					}
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !strings.HasSuffix(ts.Name.Name, "Config") ||
					af.dir == "benchmark" || strings.HasPrefix(af.dir, "benchmark/") {
					continue
				}
				for _, fl := range st.Fields.List {
					for _, id := range fl.Names {
						if id.IsExported() {
							key := pkgNames[af.dir] + "." + ts.Name.Name + "." + id.Name
							fields = append(fields, configField{key, id.Pos(), af.dir, ts.Name.Name, id.Name})
						}
					}
				}
			}
		}
	}
	return fields, aliases
}

// configWrites collects the writes to struct fields in every file: keyed
// maps "<dir>.<Type>.<Field>" of each composite-literal key to the
// directories writing it, and assigned maps each field name assigned
// through a selector to the same.
func configWrites(files []apiFile, pkgNames, aliases map[string]string) (keyed, assigned map[string]map[string]bool) {
	keyed = make(map[string]map[string]bool)
	assigned = make(map[string]map[string]bool)
	note := func(m map[string]map[string]bool, key, dir string) {
		if m[key] == nil {
			m[key] = make(map[string]bool)
		}
		m[key][dir] = true
	}
	for _, af := range files {
		imports := repoImports(af.file, pkgNames)
		ast.Inspect(af.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				key := typeKey(af.dir, imports, n.Type)
				for aliases[key] != "" {
					key = aliases[key]
				}
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok && key != "" {
						if id, ok := kv.Key.(*ast.Ident); ok {
							note(keyed, key+"."+id.Name, af.dir)
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						note(assigned, sel.Sel.Name, af.dir)
					}
				}
			}
			return true
		})
	}
	return keyed, assigned
}

// repoImports maps the local names of a file's imports of this module's
// packages to their directories.
func repoImports(f *ast.File, pkgNames map[string]string) map[string]string {
	imports := make(map[string]string)
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		dir, ok := strings.CutPrefix(path, "repro/")
		if !ok {
			continue
		}
		local := pkgNames[dir]
		if imp.Name != nil {
			local = imp.Name.Name
		}
		imports[local] = dir
	}
	return imports
}

// typeKey names the type a type expression in dir denotes as
// "<dir>.<Name>", or "" when it is not a named type of this module.
func typeKey(dir string, imports map[string]string, e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return typeKey(dir, imports, x.X)
	case *ast.Ident:
		return dir + "." + x.Name
	case *ast.SelectorExpr:
		if pkg, ok := x.X.(*ast.Ident); ok && imports[pkg.Name] != "" {
			return imports[pkg.Name] + "." + x.Sel.Name
		}
	}
	return ""
}

// TestEveryOptionIsPassed extends the option gate past Config fields to the
// command lines and the environment.  It fails on a flag declared in cmd/ or
// examples/ that no script, Makefile, doc or Go file (tests included) passes,
// and on a PURE_* variable that a non-test Go file reads but nothing sets or
// documents outside that file.  Like the gates above it works by syntax: a
// flag counts as passed wherever "-<name>" appears as a word, so two commands
// sharing a flag name share its callers.  Of the docs at the root only the
// reference docs count; the rest are history, plans and paper notes, not
// callers.
func TestEveryOptionIsPassed(t *testing.T) {
	fset := token.NewFileSet()
	files, _ := parseRepo(t, fset)
	corpus := optionCorpus(t)
	passedElsewhere := func(path string, re *regexp.Regexp) bool {
		for p, text := range corpus {
			if p != path && re.Match(text) {
				return true
			}
		}
		return false
	}

	var unused []string
	flags, vars := map[string]bool{}, map[string]bool{}
	for _, af := range files {
		path := filepath.ToSlash(fset.Position(af.file.Pos()).Filename)
		cmdOrExample := strings.HasPrefix(path, "cmd/") || strings.HasPrefix(path, "examples/")
		ast.Inspect(af.file, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if ok && lit.Kind == token.STRING {
				if name, _ := strconv.Unquote(lit.Value); envVarName.MatchString(name) {
					vars[name] = true
					if !passedElsewhere(path, regexp.MustCompile(`\b`+name+`\b`)) {
						unused = append(unused, fmt.Sprintf("%s: variable %s is read here and set or documented nowhere else", fset.Position(lit.Pos()), name))
					}
				}
			}
			call, ok := n.(*ast.CallExpr)
			if !ok || !cmdOrExample {
				return true
			}
			if name, pos, ok := flagName(call); ok {
				flags[path+" -"+name] = true
				if !passedElsewhere(path, regexp.MustCompile(`(^|[\s"'`+"`"+`(\[])-`+regexp.QuoteMeta(name)+`($|[\s"'`+"`"+`=)\],.:;])`)) {
					unused = append(unused, fmt.Sprintf("%s: flag -%s is passed by no script, Makefile target, doc or test", fset.Position(pos), name))
				}
			}
			return true
		})
	}
	t.Logf("%d flags in cmd/ and examples/, %d PURE_* variables", len(flags), len(vars))
	sort.Strings(unused)
	for _, s := range unused {
		t.Errorf("%s: give it a caller or delete it", s)
	}
}

// envVarName matches the name of a PURE_* environment variable.
var envVarName = regexp.MustCompile(`^PURE_[A-Z0-9_]+$`)

// flagName recognises a flag declaration — flag.Int("name", ...) or
// fs.IntVar(&v, "name", ...) on the flag package or a FlagSet — and returns
// the flag's name.
func flagName(call *ast.CallExpr) (string, token.Pos, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", 0, false
	}
	kind, isVar := strings.CutSuffix(sel.Sel.Name, "Var")
	switch kind {
	case "Bool", "Int", "Int64", "Uint", "Uint64", "String", "Float64", "Duration":
	default:
		return "", 0, false
	}
	arg, nargs := 0, 3
	if isVar {
		arg, nargs = 1, 4
	}
	if len(call.Args) != nargs {
		return "", 0, false
	}
	lit, ok := call.Args[arg].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", 0, false
	}
	name, err := strconv.Unquote(lit.Value)
	return name, lit.Pos(), err == nil
}

// optionCorpus reads every file that can pass a flag or set a variable: Go
// files, shell scripts, the Makefile and the docs, keyed by slash path.
func optionCorpus(t *testing.T) map[string][]byte {
	t.Helper()
	rootDocs := map[string]bool{"README.md": true, "DESIGN.md": true, "EXPERIMENTS.md": true}
	corpus := make(map[string][]byte)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		switch ext := filepath.Ext(name); {
		case ext == ".go", ext == ".sh", name == "Makefile", ext == ".md" && (filepath.Dir(path) != "." || rootDocs[path]):
			text, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			corpus[filepath.ToSlash(path)] = text
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return corpus
}
