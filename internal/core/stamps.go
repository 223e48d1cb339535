package core

import (
	"fmt"
	"slices"
	"strings"

	"gofusion/internal/catalog"
	"gofusion/internal/logical"
)

// tableStamp is one table lookup a plan was built from: the name as the
// query wrote it and the write stamp the lookup found (0 when it found
// nothing; see catalog.MemoryCatalog.Lookup).
type tableStamp struct {
	name  string
	stamp uint64
}

// tableStamps lists the lookups behind one cached plan or result. The
// entry stays valid while every name still resolves to the stamp it
// recorded: registering, replacing, dropping or writing one of its
// tables renews or clears that table's stamp, and no other table's.
type tableStamps []tableStamp

// current reports whether every recorded lookup still finds its stamp.
func (ts tableStamps) current(cat *catalog.MemoryCatalog) bool {
	for _, t := range ts {
		if _, stamp, _ := lookupTable(cat, t.name); stamp != t.stamp {
			return false
		}
	}
	return true
}

// stampRecorder is the planner's table resolver for queries (see
// SessionContext.selectDataFrame): it resolves like
// SessionContext.resolveTable and records every lookup, failed ones
// included, for the caches to check later.
type stampRecorder struct {
	cat    *catalog.MemoryCatalog
	tables tableStamps
}

func (r *stampRecorder) resolve(name string) (logical.TableSource, error) {
	t, stamp, err := lookupTable(r.cat, name)
	if ts := (tableStamp{name, stamp}); !slices.Contains(r.tables, ts) {
		r.tables = append(r.tables, ts)
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// splitTableName splits "table" or "schema.table"; an unqualified name
// lives in the public schema.
func splitTableName(name string) (schema, table string) {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i], name[i+1:]
	}
	return "public", name
}

// lookupTable resolves "table" or "schema.table" in cat together with the
// write stamp of what it found.
func lookupTable(cat *catalog.MemoryCatalog, name string) (catalog.TableProvider, uint64, error) {
	schemaName, tableName := splitTableName(name)
	t, stamp, ok := cat.Lookup(schemaName, tableName)
	if !ok {
		return nil, 0, fmt.Errorf("core: schema %q not found", schemaName)
	}
	if t == nil {
		return nil, stamp, fmt.Errorf("core: table %q not found", name)
	}
	return t, stamp, nil
}
