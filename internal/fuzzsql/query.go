package fuzzsql

import (
	"strconv"
	"strings"
)

// Join describes an optional second table in the FROM clause.
type Join struct {
	Left bool // LEFT OUTER vs INNER
	// Cross renders CROSS JOIN, with On as a conjunct of the WHERE clause.
	Cross bool
	Table string
	On    Expr
}

// Query is a structured SQL query: the generator produces these and the
// shrinker edits them, so every transformation stays syntactically valid.
// Rendering is deterministic (SQL() is a pure function of the fields).
type Query struct {
	Distinct bool
	// Items are the select-list expressions, rendered as `expr AS cN`.
	Items []Expr
	From  string
	Join  *Join
	Where Expr
	// GroupBy keys; when set, Items must be group keys or aggregates.
	GroupBy []Expr
	Having  Expr
	// Order sorts by every output ordinal (a total order over output rows
	// up to full-row duplicates, making LIMIT deterministic under the
	// normalized comparison). OrderDesc gives each ordinal's direction.
	Order     bool
	OrderDesc []bool
	Limit     int64 // <0 means no LIMIT
	// TopK wraps the query in the group-wise top-k form: the last item
	// must be a row_number() Win, which becomes a subquery column the outer
	// query filters with `<= K` and does not project. ORDER BY and LIMIT
	// then apply to the outer query.
	TopK bool
	K    int64
}

// numOutputs is the number of columns the query returns.
func (q *Query) numOutputs() int {
	if q.TopK {
		return len(q.Items) - 1
	}
	return len(q.Items)
}

// SQL renders the query.
func (q *Query) SQL() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if q.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, e := range q.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(e.SQL())
		sb.WriteString(" AS c")
		sb.WriteString(strconv.Itoa(i))
	}
	sb.WriteString(" FROM ")
	sb.WriteString(q.From)
	where := q.Where
	if q.Join != nil {
		switch {
		case q.Join.Cross:
			sb.WriteString(" CROSS JOIN ")
		case q.Join.Left:
			sb.WriteString(" LEFT JOIN ")
		default:
			sb.WriteString(" JOIN ")
		}
		sb.WriteString(q.Join.Table)
		if !q.Join.Cross {
			sb.WriteString(" ON ")
			sb.WriteString(q.Join.On.SQL())
		} else if where == nil {
			where = q.Join.On
		} else {
			where = &Bin{Op: "AND", L: q.Join.On, R: where, T: TBool}
		}
	}
	if where != nil {
		sb.WriteString(" WHERE ")
		sb.WriteString(where.SQL())
	}
	if len(q.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, g := range q.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(g.SQL())
		}
	}
	if q.Having != nil {
		sb.WriteString(" HAVING ")
		sb.WriteString(q.Having.SQL())
	}
	if q.TopK {
		inner := sb.String()
		sb.Reset()
		sb.WriteString("SELECT ")
		for i := 0; i < q.numOutputs(); i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString("c" + strconv.Itoa(i))
		}
		sb.WriteString(" FROM (" + inner + ") ranked WHERE c" + strconv.Itoa(q.numOutputs()) +
			" <= " + strconv.FormatInt(q.K, 10))
	}
	if q.Order {
		sb.WriteString(" ORDER BY ")
		for i := 0; i < q.numOutputs(); i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(strconv.Itoa(i + 1))
			if i < len(q.OrderDesc) && q.OrderDesc[i] {
				sb.WriteString(" DESC")
			} else {
				sb.WriteString(" ASC")
			}
		}
	}
	if q.Limit >= 0 {
		sb.WriteString(" LIMIT ")
		sb.WriteString(strconv.FormatInt(q.Limit, 10))
	}
	return sb.String()
}

// NumClauses counts top-level clauses (SELECT and FROM plus each optional
// clause); the shrinker's quality target is expressed in these units.
func (q *Query) NumClauses() int {
	n := 2 // SELECT + FROM
	if q.Join != nil {
		n++
	}
	if q.Where != nil {
		n++
	}
	if len(q.GroupBy) > 0 {
		n++
	}
	if q.Having != nil {
		n++
	}
	if q.Order {
		n++
	}
	if q.Limit >= 0 {
		n++
	}
	if q.TopK {
		n++
	}
	return n
}

// Clone returns a copy whose clause slices can be edited independently.
// Expr trees are immutable, so sharing them is safe.
func (q *Query) Clone() *Query {
	out := *q
	out.Items = append([]Expr(nil), q.Items...)
	out.GroupBy = append([]Expr(nil), q.GroupBy...)
	out.OrderDesc = append([]bool(nil), q.OrderDesc...)
	if q.Join != nil {
		j := *q.Join
		out.Join = &j
	}
	return &out
}
