// Command gpq inspects GPQ files: schema, row groups, per-chunk
// statistics, encodings and Bloom filters (like parquet-tools).
//
// Usage:
//
//	gpq schema file.gpq
//	gpq meta file.gpq
//	gpq head -n 20 file.gpq
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"gofusion/internal/arrow"
	"gofusion/internal/core"
	"gofusion/internal/parquet"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	n := fs.Int("n", 10, "rows to print (head)")
	fs.Parse(os.Args[2:])
	if fs.NArg() != 1 {
		usage()
	}
	path := fs.Arg(0)

	fr, err := parquet.OpenFile(path)
	if err != nil {
		fatal("%v", err)
	}
	defer fr.Close()

	switch cmd {
	case "schema":
		for _, f := range fr.Schema().Fields() {
			fmt.Println(" ", f)
		}
	case "meta":
		meta := fr.Metadata()
		fmt.Printf("rows: %d\nrow groups: %d\n", meta.NumRows, meta.NumRowGroups())
		for k, v := range meta.KV {
			fmt.Printf("kv: %s = %s\n", k, v)
		}
		for rg := 0; rg < meta.NumRowGroups(); rg++ {
			fmt.Printf("row group %d: %d rows\n", rg, meta.RowGroupRows(rg))
			for c := 0; c < fr.Schema().NumFields(); c++ {
				stats := meta.ColumnChunkStats(rg, c)
				min, max := "-", "-"
				if stats.HasMinMax {
					min, max = stats.Min.String(), stats.Max.String()
				}
				fmt.Printf("  %-24s nulls=%-6d min=%-24s max=%s\n",
					fr.Schema().Field(c).Name, stats.NullCount, min, max)
				width := 0
				if t := fr.Schema().Field(c).Type; t.ID != arrow.BOOL {
					width = t.BitWidth() / 8
				}
				fmt.Printf("  %-24s %s\n", "", chunkLayout(meta.ColumnChunkPages(rg, c), int64(width)))
			}
		}
	case "head":
		sc, err := fr.Scan(parquet.ScanOptions{Limit: int64(*n)})
		if err != nil {
			fatal("%v", err)
		}
		for {
			b, err := sc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				fatal("%v", err)
			}
			if err := core.FormatBatch(os.Stdout, b, *n); err != nil {
				fatal("%v", err)
			}
		}
	default:
		usage()
	}
}

// chunkLayout summarizes a chunk's pages as one "pages x encoding
// stored/decoded" entry per distinct encoding, in first-use order, after
// the chunk's totals. Decoded bytes, what the pages decode to, are given
// when each value takes width bytes; strings and booleans (width 0) show
// stored bytes only.
func chunkLayout(pages []parquet.PageInfo, width int64) string {
	type group struct {
		name                string
		pages, stored, rows int64
	}
	sizes := func(g *group) string {
		if width == 0 {
			return fmt.Sprint(g.stored)
		}
		return fmt.Sprintf("%d/%d", g.stored, g.rows*width)
	}
	var groups []*group
	var total group
	for _, p := range pages {
		i := slices.IndexFunc(groups, func(g *group) bool { return g.name == p.Encoding })
		if i < 0 {
			i = len(groups)
			groups = append(groups, &group{name: p.Encoding})
		}
		for _, g := range []*group{groups[i], &total} {
			g.pages++
			g.stored += p.StoredBytes
			g.rows += p.Rows
		}
	}
	out := "stored=" + sizes(&total) + ":"
	if width > 0 {
		out = "stored/decoded=" + sizes(&total) + ":"
	}
	for _, g := range groups {
		out += fmt.Sprintf(" %dx%s %s", g.pages, g.name, sizes(g))
	}
	return out
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: gpq schema|meta|head [-n rows] <file.gpq>")
	os.Exit(2)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gpq: "+format+"\n", args...)
	os.Exit(1)
}
