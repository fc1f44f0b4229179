package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

const prefix = "nnlqp/internal/"

// The memo's lru.Stats as `go tool nm` prints it: a generic instantiated over
// a struct shape, whose name holds spaces. A last-field parse reads it as
// "float64]).Stats" and reports Stats unlinked.
const memoStatsLine = "  6fa500 T nnlqp/internal/lru.(*Cache[go.shape.struct { Hash uint64; Platform string; Generation uint64 },go.shape.float64]).Stats"

func TestTextSymbol(t *testing.T) {
	for _, tc := range []struct {
		line, want string
		ok         bool
	}{
		{memoStatsLine, "nnlqp/internal/lru.(*Cache[go.shape.struct { Hash uint64; Platform string; Generation uint64 },go.shape.float64]).Stats", true},
		{"  709640 T nnlqp/internal/db.writeSnapshotFile.func2.1", "nnlqp/internal/db.writeSnapshotFile.func2.1", true},
		{"  4a1b20 t runtime.memmove", "runtime.memmove", true},
		// An assembly function, named for its Go declaration.
		{"6cf700 T nnlqp/internal/tensor.accPairs16.abi0", "nnlqp/internal/tensor.accPairs16", true},
		{"  8cb1d0 R go:itab.*nnlqp/internal/db.Store,nnlqp/internal/query.Storage", "", false},
		{"  9d0e00 D nnlqp/internal/server.errBodyTooLarge", "", false},
		{"", "", false},
	} {
		got, ok := textSymbol(tc.line)
		if got != tc.want || ok != tc.ok {
			t.Errorf("textSymbol(%q) = (%q, %v), want (%q, %v)", tc.line, got, ok, tc.want, tc.ok)
		}
	}
}

func TestSymbolKey(t *testing.T) {
	memo, _ := textSymbol(memoStatsLine)
	for _, tc := range []struct{ sym, want string }{
		{memo, "lru.Cache.Stats"},
		{"nnlqp/internal/lru.(*Cache[go.shape.struct { Hash nnlqp/internal/graphhash.Key; Platform string; Batch int },go.shape.struct { nnlqp/internal/query.val nnlqp/internal/query.CacheValue; nnlqp/internal/query.negative bool; nnlqp/internal/query.expires time.Time }]).GetIf.deferwrap1", "lru.Cache.GetIf"},
		{"nnlqp/internal/lru.New[go.shape.[]int,go.shape.map[string][]float64]", "lru.New"},
		{"nnlqp/internal/lru.(*Cache[go.shape.[]int,go.shape.int]).each.func1", "lru.Cache.each"},
		{"nnlqp/internal/db.writeSnapshotFile.func2.1", "db.writeSnapshotFile"},
		{"nnlqp/internal/breaker.(*Budget).Spend.deferwrap1", "breaker.Budget.Spend"},
		{"nnlqp/internal/serve.(*Retrainer).Start.gowrap2", "serve.Retrainer.Start"},
		{"nnlqp/internal/cluster.(*Router).handleCluster-fm", "cluster.Router.handleCluster"},
		{"nnlqp/internal/experiments.table2", "experiments.table2"},
		{"nnlqp/internal/slo.(*Class).Deadline", "slo.Class.Deadline"},
		{"nnlqp/internal/slo.Class.Deadline", "slo.Class.Deadline"},
	} {
		if got := symbolKey(tc.sym[len(prefix):]); got != tc.want {
			t.Errorf("symbolKey(%q) = %q, want %q", tc.sym, got, tc.want)
		}
	}
}

// TestDeclarationMatchesSymbol pins that every declaration form gets the key
// its linked symbol maps to, so it is never reported unlinked.
func TestDeclarationMatchesSymbol(t *testing.T) {
	const src = `package lru
func New[K comparable, V any](n int) *Cache[K, V] { return nil }
func (c *Cache[K, V]) Stats() Stats { return Stats{} }
func (c Cache[K, V]) Len() int { return 0 }
func (s Stats) Total() int { return 0 }
func (s *shard) each() {}
`
	syms := map[string]string{
		"New":   "nnlqp/internal/lru.New[go.shape.[]int,go.shape.float64]",
		"Stats": memoStatsLine[len("  6fa500 T "):],
		"Len":   "nnlqp/internal/lru.(*Cache[go.shape.int,go.shape.int]).Len",
		// A value-receiver method seen only through its pointer wrapper.
		"Total": "nnlqp/internal/lru.(*Stats).Total",
		"each":  "nnlqp/internal/lru.(*shard).each.func1",
	}
	f, err := parser.ParseFile(token.NewFileSet(), "lru.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		fd := d.(*ast.FuncDecl)
		sym, ok := syms[fd.Name.Name]
		if !ok {
			t.Fatalf("no symbol for %s", fd.Name.Name)
		}
		if dk, sk := declKey("lru", fd), symbolKey(sym[len(prefix):]); dk != sk {
			t.Errorf("%s: declaration key %q, symbol key %q", fd.Name.Name, dk, sk)
		}
	}
}
