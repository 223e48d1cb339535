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
				layout := chunkLayout(meta.ColumnChunkPages(rg, c))
				if t := fr.Schema().Field(c).Type; t.BitWidth() > 0 && t.ID != arrow.BOOL {
					// What the chunk decodes to, to judge the encoding by.
					layout = fmt.Sprintf("decoded=%d %s", meta.RowGroupRows(rg)*int64(t.BitWidth()/8), layout)
				}
				fmt.Printf("  %-24s %s\n", "", layout)
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

// chunkLayout summarizes a chunk's pages as one "pages x encoding/codec
// stored/raw" entry per distinct encoding and codec, in first-use order.
// raw is the encoded page before the byte codec.
func chunkLayout(pages []parquet.PageInfo) string {
	type group struct {
		name               string
		pages, stored, raw int64
	}
	var groups []*group
	var stored, raw int64
	for _, p := range pages {
		name := p.Encoding
		if p.Dict {
			name = "dictionary:" + name
		}
		if p.Codec != "" {
			name += "/" + p.Codec
		}
		var g *group
		for _, have := range groups {
			if have.name == name {
				g = have
			}
		}
		if g == nil {
			g = &group{name: name}
			groups = append(groups, g)
		}
		g.pages++
		g.stored += p.StoredBytes
		g.raw += p.RawBytes
		stored += p.StoredBytes
		raw += p.RawBytes
	}
	out := fmt.Sprintf("stored=%d raw=%d:", stored, raw)
	for _, g := range groups {
		out += fmt.Sprintf(" %dx%s %d/%d", g.pages, g.name, g.stored, g.raw)
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
