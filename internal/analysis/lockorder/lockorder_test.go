package lockorder

import (
	"go/types"
	"strings"
	"testing"

	"gofusion/internal/analysis/analysistest"
	"gofusion/internal/analysis/load"
)

func TestLockOrder(t *testing.T) {
	// The testdata package mirrors the engine's locking structure under
	// its own names; register them in the rank table with the engine's
	// relative ranks so the policy check is exercised end to end.
	seed := map[string]int{
		"a.Server.writeMu": 10,
		"a.Server.mu":      20,
		"a.Pool.mu":        70,
	}
	for k, v := range seed {
		Ranks[k] = v
	}
	defer func() {
		for k := range seed {
			delete(Ranks, k)
		}
	}()
	analysistest.Run(t, analysistest.TestData(), Analyzer, "a")
}

// TestRanksNameLiveLocks checks every Ranks key against the engine's
// source: "pkgpath.Type.field" must name a mutex field of a struct type,
// "pkgpath.var" a mutex package variable. A key the code no longer has
// would be silently ignored by the checker.
func TestRanksNameLiveLocks(t *testing.T) {
	type ref struct{ key, pkg, typ, name string }
	var refs []ref
	pkgPaths := map[string]bool{}
	for key := range Ranks {
		slash := strings.LastIndex(key, "/")
		parts := strings.Split(key[slash+1:], ".")
		r := ref{key: key, pkg: key[:slash+1] + parts[0]}
		switch len(parts) {
		case 2:
			r.name = parts[1]
		case 3:
			r.typ, r.name = parts[1], parts[2]
		default:
			t.Errorf("rank key %q is neither pkgpath.Type.field nor pkgpath.var", key)
			continue
		}
		refs = append(refs, r)
		pkgPaths[r.pkg] = true
	}
	moduleDir, err := load.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	var patterns []string
	for p := range pkgPaths {
		patterns = append(patterns, p)
	}
	pkgs, err := load.Load(moduleDir, patterns...)
	if err != nil {
		t.Fatal(err)
	}
	scopes := map[string]*types.Scope{}
	for _, p := range pkgs {
		scopes[p.ImportPath] = p.Types.Scope()
	}
	isMutex := func(typ types.Type) bool {
		if p, ok := typ.(*types.Pointer); ok {
			typ = p.Elem()
		}
		s := typ.String()
		return s == "sync.Mutex" || s == "sync.RWMutex"
	}
	for _, r := range refs {
		scope := scopes[r.pkg]
		if scope == nil {
			t.Errorf("rank key %q: package %s not found", r.key, r.pkg)
			continue
		}
		if r.typ == "" {
			v, ok := scope.Lookup(r.name).(*types.Var)
			if !ok || !isMutex(v.Type()) {
				t.Errorf("rank key %q: %s has no mutex variable %s", r.key, r.pkg, r.name)
			}
			continue
		}
		tn, ok := scope.Lookup(r.typ).(*types.TypeName)
		var st *types.Struct
		if ok {
			st, _ = tn.Type().Underlying().(*types.Struct)
		}
		if st == nil {
			t.Errorf("rank key %q: %s has no struct type %s", r.key, r.pkg, r.typ)
			continue
		}
		found := false
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Name() == r.name && isMutex(f.Type()) {
				found = true
			}
		}
		if !found {
			t.Errorf("rank key %q: %s.%s has no mutex field %s", r.key, r.pkg, r.typ, r.name)
		}
	}
}
