// Command deadcode lists the functions of the root package and under
// internal/ that no binary of the module links, and fails unless that list
// equals allow.txt.
//
// It builds every main package (./cmd/*, ./examples/*, ./benchmark) with
// inlining off, so every call leaves a symbol, and compares the text symbols
// `go tool nm` reads from the binaries with the non-test function
// declarations go/parser finds in the root package and under internal/.
// Keys name an internal declaration by its package path below internal/
// (db.Store.Checkpoint) and a root one by the module path
// (nnlqp.Client.Checkpoint). The exit status is non-zero
// when an unlinked function is missing from allow.txt, or when an entry there
// is linked or no longer declared. Run it from the module root:
//
//	go run ./tools/deadcode
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

var roots = []string{"./cmd/...", "./examples/...", "./benchmark"}

const allowFile = "tools/deadcode/allow.txt"

// decl is one non-test function declaration.
type decl struct {
	pos   string // file:line
	lines int    // the func span, doc comment excluded
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(1)
	}
}

func run() error {
	out, err := exec.Command("go", "list", "-m").Output()
	if err != nil {
		return fmt.Errorf("go list -m: %w", err)
	}
	mod := strings.TrimSpace(string(out))
	decls, err := declarations(mod)
	if err != nil {
		return err
	}
	linked, err := linkedKeys(mod)
	if err != nil {
		return err
	}
	allow, err := readAllow(allowFile)
	if err != nil {
		return err
	}
	var dead []string
	for k := range decls {
		if !linked[k] {
			dead = append(dead, k)
		}
	}
	sort.Strings(dead)
	failed, total := false, 0
	for _, k := range dead {
		mark := "allowed"
		if !allow[k] {
			mark, failed = "NOT IN "+allowFile, true
		}
		total += decls[k].lines
		fmt.Printf("%-40s %4d lines  %s  (%s)\n", k, decls[k].lines, decls[k].pos, mark)
	}
	fmt.Printf("%d functions, %d lines linked by no binary\n", len(dead), total)
	for k := range allow {
		if _, ok := decls[k]; !ok || linked[k] {
			fmt.Printf("stale allow entry %s: linked or no longer declared\n", k)
			failed = true
		}
	}
	if failed {
		return fmt.Errorf("unlinked functions and %s disagree", allowFile)
	}
	return nil
}

// declarations maps the key (see declKey) of every non-test function
// declared in the root package (module path mod) and under internal/ to its
// position and length, skipping files whose build constraints exclude them
// on this platform.
func declarations(mod string) (map[string]decl, error) {
	out := map[string]decl{}
	fset := token.NewFileSet()
	add := func(path, pkg string) error {
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), filepath.Base(path)); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, x := range f.Decls {
			if fd, ok := x.(*ast.FuncDecl); ok && (fd.Recv != nil || fd.Name.Name != "init") {
				start, end := fset.Position(fd.Pos()).Line, fset.Position(fd.End()).Line
				out[declKey(pkg, fd)] = decl{fmt.Sprintf("%s:%d", path, start), end - start + 1}
			}
		}
		return nil
	}
	rootFiles, err := filepath.Glob("*.go")
	if err != nil {
		return nil, err
	}
	for _, path := range rootFiles {
		if err := add(path, mod); err != nil {
			return nil, err
		}
	}
	err = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		return add(path, filepath.ToSlash(strings.TrimPrefix(filepath.Dir(path), "internal"+string(filepath.Separator))))
	})
	return out, err
}

// declKey names a declaration pkg.Func or pkg.Recv.Method, where pkg is the
// path below internal/ (the module path for the root package) and Recv the
// receiver's type name without a pointer or type parameters.
func declKey(pkg string, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkg + "." + fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.Ident:
			return pkg + "." + x.Name + "." + fd.Name.Name
		default:
			return pkg + "." + fd.Name.Name
		}
	}
}

// linkedKeys builds every root into one temporary directory in one go build
// call and returns the declaration keys of the module's text symbols (see
// moduleKey) that any binary holds.
func linkedKeys(mod string) (map[string]bool, error) {
	dir, err := os.MkdirTemp("", "deadcode")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	args := append([]string{"build", "-gcflags=all=-l", "-o", dir + string(filepath.Separator)}, roots...)
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build: %v\n%s", err, out)
	}
	bins, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	linked := map[string]bool{}
	for _, b := range bins {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(dir, b.Name())).Output()
		if err != nil {
			return nil, fmt.Errorf("go tool nm %s: %w", b.Name(), err)
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			if name, ok := textSymbol(sc.Text()); ok {
				if k, ok := moduleKey(mod, name); ok {
					linked[k] = true
				}
			}
		}
	}
	return linked, nil
}

// textSymbol returns the name in one `go tool nm` line ("addr type name")
// when the symbol is code. The name is everything after the type column: the
// names of generics instantiated over struct shapes contain spaces. An
// assembly function's name carries an .abi0 suffix, dropped here so it names
// its Go declaration.
func textSymbol(line string) (string, bool) {
	f := strings.SplitN(strings.TrimLeft(line, " "), " ", 3)
	if len(f) != 3 || (f[1] != "T" && f[1] != "t") {
		return "", false
	}
	return strings.TrimSuffix(f[2], ".abi0"), true
}

// moduleKey maps a text symbol of module mod to the key of its declaration:
// below mod/internal/ the symbol's package is named by its path there, in the
// root package by mod itself. Symbols of other packages report false.
func moduleKey(mod, sym string) (string, bool) {
	if rest, ok := strings.CutPrefix(sym, mod+"/internal/"); ok {
		return symbolKey(rest), true
	}
	if strings.HasPrefix(sym, mod+".") {
		return symbolKey(sym), true
	}
	return "", false
}

var closureSuffix = regexp.MustCompile(`(\.(func|deferwrap|gowrap)?[0-9]+)+$`)

// symbolKey maps a symbol name, below internal/ or in the root package, to
// the key of the declaration it belongs to: the balanced [...] instantiation is dropped, a closure or
// method-value wrapper counts for its parent, and (*T).M counts for T.M.
func symbolKey(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	s := closureSuffix.ReplaceAllString(strings.TrimSuffix(b.String(), "-fm"), "")
	return strings.NewReplacer("(*", "", ")", "").Replace(s)
}

// readAllow reads the allowlist: one key per line followed by its reason;
// blank lines and lines starting with # are ignored.
func readAllow(path string) (map[string]bool, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]bool{}
	for i, l := range strings.Split(string(b), "\n") {
		if l = strings.TrimSpace(l); l == "" || l[0] == '#' {
			continue
		}
		k, reason, _ := strings.Cut(l, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, i+1, k)
		}
		out[k] = true
	}
	return out, nil
}
