package parquet

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"

	"gofusion/internal/arrow"
)

// AppendFile appends batches to an existing GPQ file in place: the old
// footer is overwritten with new row groups continuing the file's data
// section, and a footer carrying the combined row-group list is written
// after them. Readers opened before the append keep working — old row
// groups' pages are byte-identical at their old offsets — while new opens
// see the grown file (and a rotated size/mtime fingerprint, so the
// footer cache, the page cache and the mmap registry key the new
// contents separately). The file's
// declared sort order, if any, is dropped: appended rows need not extend
// it. Appending zero rows is a no-op that leaves the file untouched.
func AppendFile(path string, batches []*arrow.RecordBatch, opts WriterOptions) error {
	rows := 0
	for _, b := range batches {
		rows += b.NumRows()
	}
	if rows == 0 {
		return nil
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	err = appendTo(f, batches, opts)
	cerr := f.Close()
	if err != nil {
		return err
	}
	return cerr
}

func appendTo(f *os.File, batches []*arrow.RecordBatch, opts WriterOptions) error {
	st, err := f.Stat()
	if err != nil {
		return err
	}
	size := st.Size()
	meta, err := ReadMetadata(f, size)
	if err != nil {
		return err
	}
	for _, b := range batches {
		if !b.Schema().Equal(meta.Schema) {
			return fmt.Errorf("parquet: append schema %s does not match file schema %s",
				b.Schema(), meta.Schema)
		}
	}
	var tail [8]byte
	if _, err := f.ReadAt(tail[:], size-8); err != nil {
		return err
	}
	footerLen := int64(binary.LittleEndian.Uint32(tail[:4]))
	dataEnd := size - 8 - footerLen
	if dataEnd < int64(len(Magic)) {
		return errFormat
	}
	if _, err := f.Seek(dataEnd, 0); err != nil {
		return err
	}

	opts = opts.withDefaults()
	// Resume the writer exactly where the data section ended, carrying the
	// existing row-group list forward so Close writes the combined footer.
	fw := &FileWriter{
		w:      bufio.NewWriterSize(f, 1<<20),
		offset: dataEnd,
		schema: meta.Schema,
		opts:   opts,
		footer: *meta.footer,
	}
	if fw.footer.KV != nil {
		kv := make(map[string]string, len(fw.footer.KV))
		for k, v := range fw.footer.KV {
			if k == "sort_order" {
				continue
			}
			kv[k] = v
		}
		fw.footer.KV = kv
	}
	for _, b := range batches {
		if err := fw.Write(b); err != nil {
			return err
		}
	}
	if err := fw.Close(); err != nil {
		return err
	}
	return f.Sync()
}
