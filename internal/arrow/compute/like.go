package compute

import (
	"bytes"
	"regexp"
	"strings"

	"gofusion/internal/arrow"
)

// LikeMatcher matches SQL LIKE patterns against byte strings. Patterns are
// compiled once per expression; common shapes (exact, prefix, suffix,
// contains) use direct byte comparisons and everything else falls back to a
// compiled regular expression.
type LikeMatcher struct {
	kind    likeKind
	needle  []byte
	needle2 []byte // second fragment for %a%b% shapes
	re      *regexp.Regexp
	negated bool
}

type likeKind int

const (
	likeExact     likeKind = iota // no wildcards
	likePrefix                    // abc%
	likeSuffix                    // %abc
	likeContains                  // %abc%
	likeContains2                 // %abc%def%
	likeMatchAll                  // %
	likeRegex                     // anything else
)

// CompileLike compiles a LIKE pattern. Supported wildcards: % (any run) and
// _ (any single byte); backslash escapes a wildcard.
func CompileLike(pattern string, negated bool) (*LikeMatcher, error) {
	m := &LikeMatcher{negated: negated}
	if pattern == "%" || pattern == "%%" {
		m.kind = likeMatchAll
		return m, nil
	}
	hasEscape := strings.ContainsAny(pattern, "\\_")
	if !hasEscape {
		inner := strings.Trim(pattern, "%")
		nPct := strings.Count(pattern, "%")
		switch {
		case nPct == 0:
			m.kind = likeExact
			m.needle = []byte(pattern)
			return m, nil
		case !strings.Contains(inner, "%"):
			switch {
			case strings.HasPrefix(pattern, "%") && strings.HasSuffix(pattern, "%"):
				m.kind = likeContains
				m.needle = []byte(inner)
				return m, nil
			case strings.HasSuffix(pattern, "%") && !strings.HasPrefix(pattern, "%"):
				m.kind = likePrefix
				m.needle = []byte(inner)
				return m, nil
			case strings.HasPrefix(pattern, "%"):
				m.kind = likeSuffix
				m.needle = []byte(inner)
				return m, nil
			}
		case strings.HasPrefix(pattern, "%") && strings.HasSuffix(pattern, "%"):
			parts := strings.Split(inner, "%")
			if len(parts) == 2 && parts[0] != "" && parts[1] != "" {
				m.kind = likeContains2
				m.needle = []byte(parts[0])
				m.needle2 = []byte(parts[1])
				return m, nil
			}
		}
	}
	// General case: translate to an anchored regexp.
	var sb strings.Builder
	sb.WriteString("(?s)^")
	for i := 0; i < len(pattern); i++ {
		c := pattern[i]
		switch c {
		case '\\':
			if i+1 < len(pattern) {
				i++
				sb.WriteString(regexp.QuoteMeta(string(pattern[i])))
			}
		case '%':
			sb.WriteString(".*")
		case '_':
			sb.WriteString(".")
		default:
			sb.WriteString(regexp.QuoteMeta(string(c)))
		}
	}
	sb.WriteString("$")
	re, err := regexp.Compile(sb.String())
	if err != nil {
		return nil, err
	}
	m.kind = likeRegex
	m.re = re
	return m, nil
}

// Match reports whether s matches the pattern (before negation).
func (m *LikeMatcher) match(s []byte) bool {
	switch m.kind {
	case likeMatchAll:
		return true
	case likeExact:
		return bytes.Equal(s, m.needle)
	case likePrefix:
		return bytes.HasPrefix(s, m.needle)
	case likeSuffix:
		return bytes.HasSuffix(s, m.needle)
	case likeContains:
		return bytes.Contains(s, m.needle)
	case likeContains2:
		i := bytes.Index(s, m.needle)
		if i < 0 {
			return false
		}
		return bytes.Contains(s[i+len(m.needle):], m.needle2)
	default:
		return m.re.Match(s)
	}
}

// Match reports whether s matches, applying negation.
func (m *LikeMatcher) Match(s []byte) bool { return m.match(s) != m.negated }

// Eval evaluates the pattern against every slot of a string array, 64
// results to a word.
func (m *LikeMatcher) Eval(a *arrow.StringArray) *arrow.BoolArray {
	n := a.Len()
	off, data := a.Offsets(), a.Data()
	vals := arrow.NewBitmap(n)
	for i := 0; i < n; i += 64 {
		k := min(64, n-i)
		var w uint64
		for j := 0; j < k; j++ {
			w |= b2u(m.match(data[off[i+j]:off[i+j+1]]) != m.negated) << j
		}
		storeBits(vals, i, k, w)
	}
	return matched(vals, a)
}

// RegexpMatch evaluates a pre-compiled regular expression against every
// slot, implementing SQL REGEXP/~ operators.
func RegexpMatch(a *arrow.StringArray, re *regexp.Regexp, negated bool) *arrow.BoolArray {
	n := a.Len()
	off, data := a.Offsets(), a.Data()
	vals := arrow.NewBitmap(n)
	for i := 0; i < n; i += 64 {
		k := min(64, n-i)
		var w uint64
		for j := 0; j < k; j++ {
			w |= b2u(re.Match(data[off[i+j]:off[i+j+1]]) != negated) << j
		}
		storeBits(vals, i, k, w)
	}
	return matched(vals, a)
}

// matched is the result of a string match over a: NULL where a is, with
// the value bit cleared.
func matched(vals arrow.Bitmap, a *arrow.StringArray) *arrow.BoolArray {
	valid := a.Validity().Clone()
	if valid != nil {
		for q := range vals {
			vals[q] &= valid[q]
		}
	}
	return arrow.NewBool(vals, valid, a.Len())
}
