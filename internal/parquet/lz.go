package parquet

import (
	"encoding/binary"
	"math/bits"
)

// The "lz" page codec is the LZ4 block format: byte-oriented LZ77 with no
// entropy stage, so decoding is a run of short copies.
//
// A block is a series of sequences. Each sequence is
//
//	token | [literal length bytes] | literals | offset (u16 LE) | [match length bytes]
//
// The token's high nibble is the literal count and its low nibble the
// match length minus 4; a nibble of 15 is extended by following bytes,
// each adding 0..255, ending with the first byte below 255. The match
// copies `length` bytes starting `offset` bytes back in the output
// (1 <= offset <= 65535; offset < length repeats the pattern). The last
// sequence of a block stops after its literals. The decoded size is not
// part of the block; GPQ pages derive it from the page header.

const (
	lzMinMatch = 4
	// A match may not start within the last lzMatchGuard bytes and the last
	// lzLastLiterals bytes are always literals (the LZ4 end-of-block rules).
	lzMatchGuard   = 12
	lzLastLiterals = 5
	lzMaxOffset    = 65535
	lzHashLog      = 13
	// lzMaxRatio bounds how much a block can expand: one extension byte
	// adds at most 255 bytes of match.
	lzMaxRatio = 255
)

// lzTable is the compressor's hash table of recent positions.
type lzTable [1 << lzHashLog]int32

func lzHash(v uint32) uint32 { return (v * 2654435761) >> (32 - lzHashLog) }

// lzCompress appends the LZ block encoding of src to dst. table is
// scratch space, cleared here so output depends on src alone.
func lzCompress(dst, src []byte, table *lzTable) []byte {
	*table = lzTable{}
	n := len(src)
	anchor := 0
	if n > lzMatchGuard {
		matchLimit := n - lzMatchGuard // last position a match may start at
		endLimit := n - lzLastLiterals // matches stop here
		pos := 0
	sequences:
		for {
			// Find a match; the stride grows while none is found so
			// incompressible input is skipped quickly.
			attempts := 1 << 6
			var cand int
			for {
				if pos > matchLimit {
					break sequences
				}
				cur := binary.LittleEndian.Uint32(src[pos:])
				h := lzHash(cur)
				cand = int(table[h])
				table[h] = int32(pos)
				if cand < pos && pos-cand <= lzMaxOffset && binary.LittleEndian.Uint32(src[cand:]) == cur {
					break
				}
				pos += attempts >> 6
				attempts++
			}
			for pos > anchor && cand > 0 && src[pos-1] == src[cand-1] {
				pos--
				cand--
			}
			mlen := lzMinMatch + commonPrefix(src[cand+lzMinMatch:], src[pos+lzMinMatch:endLimit])
			dst = lzEmit(dst, src[anchor:pos], pos-cand, mlen)
			pos += mlen
			anchor = pos
			if pos <= matchLimit {
				table[lzHash(binary.LittleEndian.Uint32(src[pos-2:]))] = int32(pos - 2)
			}
		}
	}
	return lzEmit(dst, src[anchor:], 0, 0)
}

// lzEmit appends one sequence; offset 0 writes the final literals-only
// sequence.
func lzEmit(dst, literals []byte, offset, mlen int) []byte {
	ll := len(literals)
	ml := mlen - lzMinMatch
	token := byte(min(ll, 15)) << 4
	if offset != 0 {
		token |= byte(min(ml, 15))
	}
	dst = append(dst, token)
	if ll >= 15 {
		dst = lzAppendLen(dst, ll-15)
	}
	dst = append(dst, literals...)
	if offset == 0 {
		return dst
	}
	dst = append(dst, byte(offset), byte(offset>>8))
	if ml >= 15 {
		dst = lzAppendLen(dst, ml-15)
	}
	return dst
}

func lzAppendLen(dst []byte, v int) []byte {
	for ; v >= 255; v -= 255 {
		dst = append(dst, 255)
	}
	return append(dst, byte(v))
}

// commonPrefix returns the length of the longest common prefix of a and b.
func commonPrefix(a, b []byte) int {
	if len(b) < len(a) {
		a = a[:len(b)]
	}
	i := 0
	for ; i+8 <= len(a); i += 8 {
		if x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)>>3
		}
	}
	for ; i < len(a) && a[i] == b[i]; i++ {
	}
	return i
}

// lzDecompress decodes an LZ block into dst, whose length must be the
// exact decoded size. Every length and offset is checked against both
// buffers: malformed input returns errFormat and never reads or writes
// out of bounds.
func lzDecompress(dst, src []byte) error {
	si, di := 0, 0
	for {
		if si >= len(src) {
			return errFormat
		}
		token := src[si]
		si++

		ll := int(token >> 4)
		if ll == 15 {
			var ok bool
			if ll, si, ok = lzReadLen(src, si, ll); !ok {
				return errFormat
			}
		}
		if ll > len(src)-si || ll > len(dst)-di {
			return errFormat
		}
		if ll <= 16 && len(src)-si >= 16 && len(dst)-di >= 16 {
			// Short runs dominate: one fixed 16-byte move beats a memmove
			// call. Bytes past ll are rewritten by the sequences after.
			*(*[16]byte)(dst[di:]) = *(*[16]byte)(src[si:])
		} else {
			copy(dst[di:di+ll], src[si:])
		}
		si += ll
		di += ll
		if si == len(src) {
			if di != len(dst) {
				return errFormat
			}
			return nil
		}

		if len(src)-si < 2 {
			return errFormat
		}
		off := int(src[si]) | int(src[si+1])<<8
		si += 2
		if off == 0 || off > di {
			return errFormat
		}
		ml := int(token & 15)
		if ml == 15 {
			var ok bool
			if ml, si, ok = lzReadLen(src, si, ml); !ok {
				return errFormat
			}
		}
		ml += lzMinMatch
		if ml > len(dst)-di {
			return errFormat
		}
		m := di - off
		switch {
		case ml <= 16 && off >= 16 && len(dst)-di >= 16:
			*(*[16]byte)(dst[di:]) = *(*[16]byte)(dst[m:])
		case off >= ml:
			copy(dst[di:di+ml], dst[m:])
		default:
			// Overlapping match: the pattern of `off` bytes repeats. Each
			// copy reads only what is already written and doubles it.
			for n := 0; n < ml; {
				n += copy(dst[di+n:di+ml], dst[m:di+n])
			}
		}
		di += ml
	}
}

// lzReadLen reads the 255-terminated extension bytes of a length nibble.
func lzReadLen(src []byte, si, v int) (int, int, bool) {
	for {
		if si >= len(src) {
			return 0, 0, false
		}
		b := src[si]
		si++
		v += int(b)
		if b != 255 {
			return v, si, true
		}
	}
}
