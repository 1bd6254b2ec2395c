// Command apicheck guards the public API surface of package passjoin the
// way golang.org/x/exp/apidiff guards module APIs, without the external
// dependency: it parses the package's source (stdlib go/ast only, no type
// checking needed for a surface diff), renders every exported declaration
// — functions, methods on exported receivers, types with their exported
// fields and interface methods, consts and vars — as one normalized line,
// and compares the sorted result against the checked-in golden file
// api/passjoin.txt. A type defined over, or aliasing, another package's
// struct in this module lists that struct's exported fields as its own.
//
//	go run ./cmd/apicheck              # fail with a diff on any change
//	go run ./cmd/apicheck -write       # intentional change: regenerate
//
// CI runs the check form, so an accidental breaking change (a removed or
// re-signatured symbol) fails the build; an intentional change shows up
// in review as a diff of the golden file alongside the code.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	dir := flag.String("dir", ".", "package directory to scan")
	golden := flag.String("golden", "api/passjoin.txt", "golden surface file (relative to -dir)")
	write := flag.Bool("write", false, "regenerate the golden file instead of checking against it")
	flag.Parse()

	surface, err := packageSurface(*dir)
	if err != nil {
		fatal(err)
	}
	got := strings.Join(surface, "\n") + "\n"
	path := filepath.Join(*dir, *golden)
	if *write {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("apicheck: wrote %d symbols to %s\n", len(surface), path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		fatal(fmt.Errorf("%w (run `go run ./cmd/apicheck -write` to create the golden file)", err))
	}
	if diff := diffLines(strings.Split(strings.TrimRight(string(want), "\n"), "\n"), surface); diff != "" {
		fmt.Fprintf(os.Stderr, "apicheck: public API surface differs from %s:\n%s\n", path, diff)
		fmt.Fprintln(os.Stderr, "apicheck: if the change is intentional, regenerate with `go run ./cmd/apicheck -write` and commit the golden file")
		os.Exit(1)
	}
	fmt.Printf("apicheck: %d symbols match %s\n", len(surface), path)
}

// packageSurface renders the exported surface of the package in dir as
// sorted, normalized one-line declarations.
func packageSurface(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, err
	}
	var lines []string
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				lines = append(lines, declSurface(fset, decl)...)
				if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.TYPE {
					for _, spec := range gd.Specs {
						fields, err := fieldsOver(dir, file, spec.(*ast.TypeSpec))
						if err != nil {
							return nil, err
						}
						lines = append(lines, fields...)
					}
				}
			}
		}
	}
	sort.Strings(lines)
	return lines, nil
}

// fieldsOver returns the field lines of the struct that sp is defined over
// or aliases, under sp's name, when that struct is declared in a package
// of the module containing dir; nil for any other type.
func fieldsOver(dir string, file *ast.File, sp *ast.TypeSpec) ([]string, error) {
	sel, ok := sp.Type.(*ast.SelectorExpr)
	if !ok || !sp.Name.IsExported() {
		return nil, nil
	}
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	for _, is := range file.Imports {
		path := strings.Trim(is.Path.Value, `"`)
		name := path[strings.LastIndex(path, "/")+1:] // the package name, in this module
		if is.Name != nil {
			name = is.Name.Name
		}
		if name != sel.X.(*ast.Ident).Name {
			continue
		}
		if path != modPath && !strings.HasPrefix(path, modPath+"/") {
			return nil, nil
		}
		other, err := packageSurface(filepath.Join(root, strings.TrimPrefix(path, modPath)))
		var out []string
		for _, l := range other {
			if f, ok := strings.CutPrefix(l, "field "+sel.Sel.Name+"."); ok {
				out = append(out, "field "+sp.Name.Name+"."+f)
			}
		}
		return out, err
	}
	return nil, nil
}

var moduleLine = regexp.MustCompile(`(?m)^\s*module\s+"?([^\s"]+)`)

// findModule returns the directory of the go.mod at or above dir and the
// module path its module line declares.
func findModule(dir string) (root, modPath string, err error) {
	for root, err = filepath.Abs(dir); err == nil; root = filepath.Dir(root) {
		if mod, err := os.ReadFile(filepath.Join(root, "go.mod")); err == nil {
			if m := moduleLine.FindSubmatch(mod); m != nil {
				return root, string(m[1]), nil
			}
			return "", "", fmt.Errorf("%s: no module line", filepath.Join(root, "go.mod"))
		}
		if root == filepath.Dir(root) {
			err = fmt.Errorf("no go.mod at or above %s", dir)
		}
	}
	return "", "", err
}

func declSurface(fset *token.FileSet, decl ast.Decl) []string {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() {
			return nil
		}
		if d.Recv != nil {
			recv := exprString(fset, d.Recv.List[0].Type)
			if !ast.IsExported(strings.TrimPrefix(recv, "*")) {
				return nil
			}
			return []string{fmt.Sprintf("method (%s) %s%s", recv, d.Name.Name, funcSig(fset, d.Type))}
		}
		return []string{fmt.Sprintf("func %s%s", d.Name.Name, funcSig(fset, d.Type))}
	case *ast.GenDecl:
		var out []string
		// In const blocks, an omitted type carries over from the previous
		// spec (the iota idiom), so track it across the group.
		var carryType string
		for _, spec := range d.Specs {
			switch sp := spec.(type) {
			case *ast.TypeSpec:
				out = append(out, typeSurface(fset, sp)...)
			case *ast.ValueSpec:
				typ := carryType
				if sp.Type != nil {
					typ = exprString(fset, sp.Type)
				} else if d.Tok == token.VAR {
					typ = "" // vars don't inherit; value-derived types stay untyped here
				}
				if d.Tok == token.CONST {
					carryType = typ
				}
				for _, name := range sp.Names {
					if !name.IsExported() {
						continue
					}
					kind := "var"
					if d.Tok == token.CONST {
						kind = "const"
					}
					if typ != "" {
						out = append(out, fmt.Sprintf("%s %s %s", kind, name.Name, typ))
					} else {
						out = append(out, fmt.Sprintf("%s %s", kind, name.Name))
					}
				}
			}
		}
		return out
	}
	return nil
}

func typeSurface(fset *token.FileSet, sp *ast.TypeSpec) []string {
	if !sp.Name.IsExported() {
		return nil
	}
	name := sp.Name.Name
	switch t := sp.Type.(type) {
	case *ast.StructType:
		out := []string{fmt.Sprintf("type %s struct", name)}
		for _, f := range t.Fields.List {
			typ := exprString(fset, f.Type)
			if len(f.Names) == 0 { // embedded
				if ast.IsExported(strings.TrimPrefix(typ, "*")) {
					out = append(out, fmt.Sprintf("field %s.%s %s (embedded)", name, typ, typ))
				}
				continue
			}
			for _, fn := range f.Names {
				if fn.IsExported() {
					out = append(out, fmt.Sprintf("field %s.%s %s", name, fn.Name, typ))
				}
			}
		}
		return out
	case *ast.InterfaceType:
		out := []string{fmt.Sprintf("type %s interface", name)}
		for _, m := range t.Methods.List {
			if len(m.Names) == 0 { // embedded interface
				out = append(out, fmt.Sprintf("embedded %s.%s", name, exprString(fset, m.Type)))
				continue
			}
			ft, ok := m.Type.(*ast.FuncType)
			if !ok {
				continue
			}
			for _, mn := range m.Names {
				if mn.IsExported() {
					out = append(out, fmt.Sprintf("ifacemethod %s.%s%s", name, mn.Name, funcSig(fset, ft)))
				}
			}
		}
		return out
	default:
		eq := ""
		if sp.Assign.IsValid() {
			eq = "= "
		}
		return []string{fmt.Sprintf("type %s %s%s", name, eq, exprString(fset, sp.Type))}
	}
}

// funcSig renders a function type as "(params) results" with normalized
// spacing.
func funcSig(fset *token.FileSet, ft *ast.FuncType) string {
	// Render via the printer on a cloned FuncType so the output is
	// position-independent and whitespace-normalized.
	s := exprString(fset, ft)
	return strings.TrimPrefix(s, "func")
}

func exprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		fatal(err)
	}
	// Collapse any multi-line rendering (struct literals in types, long
	// signatures) into one normalized line.
	fields := strings.Fields(buf.String())
	return strings.Join(fields, " ")
}

// diffLines reports lines present in exactly one of the two sorted sets.
func diffLines(want, got []string) string {
	inWant := make(map[string]bool, len(want))
	for _, l := range want {
		inWant[l] = true
	}
	inGot := make(map[string]bool, len(got))
	for _, l := range got {
		inGot[l] = true
	}
	var b strings.Builder
	for _, l := range want {
		if !inGot[l] {
			fmt.Fprintf(&b, "  - %s\n", l)
		}
	}
	for _, l := range got {
		if !inWant[l] {
			fmt.Fprintf(&b, "  + %s\n", l)
		}
	}
	return strings.TrimRight(b.String(), "\n")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "apicheck:", err)
	os.Exit(1)
}
