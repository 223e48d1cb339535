// Package logical defines the engine's logical query representation:
// expression trees (Expr), relational operator trees (Plan), qualified
// schemas, a builder API, and a generic tree-rewrite framework. The SQL
// front end produces these structures, the optimizer rewrites them, and
// the physical planner lowers them to execution plans (paper Section 5.4).
package logical

import (
	"fmt"
	"strings"

	"gofusion/internal/arrow"
)

// QField is a schema field with an optional relation qualifier, so the
// planner can resolve both `col` and `table.col` references.
type QField struct {
	Qualifier string
	Name      string
	Type      *arrow.DataType
	Nullable  bool
}

// QualifiedName renders the field as qualifier.name (or just name).
func (f QField) QualifiedName() string {
	if f.Qualifier == "" {
		return f.Name
	}
	return f.Qualifier + "." + f.Name
}

// Schema is an ordered list of qualified fields describing a plan's output.
type Schema struct {
	fields []QField
}

// NewSchema builds a schema from fields.
func NewSchema(fields ...QField) *Schema { return &Schema{fields: fields} }

// FromArrow lifts an arrow schema into a logical schema with one qualifier.
func FromArrow(qualifier string, s *arrow.Schema) *Schema {
	fields := make([]QField, s.NumFields())
	for i, f := range s.Fields() {
		fields[i] = QField{Qualifier: qualifier, Name: f.Name, Type: f.Type, Nullable: f.Nullable}
	}
	return NewSchema(fields...)
}

// ToArrow lowers the schema to an arrow schema using unqualified names.
func (s *Schema) ToArrow() *arrow.Schema {
	fields := make([]arrow.Field, len(s.fields))
	for i, f := range s.fields {
		fields[i] = arrow.NewField(f.Name, f.Type, f.Nullable)
	}
	return arrow.NewSchema(fields...)
}

// Fields returns the field list; callers must not mutate it.
func (s *Schema) Fields() []QField { return s.fields }

// Len returns the number of fields.
func (s *Schema) Len() int { return len(s.fields) }

// Field returns field i.
func (s *Schema) Field(i int) QField { return s.fields[i] }

// Merge concatenates two schemas (as join output does).
func (s *Schema) Merge(o *Schema) *Schema {
	fields := make([]QField, 0, len(s.fields)+len(o.fields))
	fields = append(fields, s.fields...)
	fields = append(fields, o.fields...)
	return NewSchema(fields...)
}

// ErrAmbiguous is returned when an unqualified column name matches
// multiple fields.
type ErrAmbiguous struct{ Name string }

func (e *ErrAmbiguous) Error() string {
	return fmt.Sprintf("column reference %q is ambiguous", e.Name)
}

// ErrNotFound is returned when a column cannot be resolved. The schema is
// rendered only if the error is: optimizer rules probe schemas for
// columns they do not hold far more often than an error is reported.
type ErrNotFound struct {
	Name   string
	Schema *Schema
}

func (e *ErrNotFound) Error() string {
	return fmt.Sprintf("column %q not found in schema %s", e.Name, e.Schema)
}

// Resolve finds the index of a (possibly qualified) column reference,
// case-insensitively. Unqualified names must be unambiguous.
func (s *Schema) Resolve(qualifier, name string) (int, error) {
	found := -1
	for i, f := range s.fields {
		if !strings.EqualFold(f.Name, name) {
			continue
		}
		if qualifier != "" {
			if strings.EqualFold(f.Qualifier, qualifier) {
				// Qualified duplicates prefer the first match, which is the
				// standard resolution order.
				return i, nil
			}
			continue
		}
		if found >= 0 {
			// Identical (qualifier, name) duplicates are the same column
			// appearing twice (e.g. via USING); anything else is ambiguous.
			if s.fields[found].Qualifier != f.Qualifier {
				return 0, &ErrAmbiguous{Name: name}
			}
			continue
		}
		found = i
	}
	if found < 0 {
		display := name
		if qualifier != "" {
			display = qualifier + "." + name
		}
		return 0, &ErrNotFound{Name: display, Schema: s}
	}
	return found, nil
}

// IndexOfColumn resolves a Column expression.
func (s *Schema) IndexOfColumn(c *Column) (int, error) {
	return s.Resolve(c.Relation, c.Name)
}

func (s *Schema) String() string {
	parts := make([]string, len(s.fields))
	for i, f := range s.fields {
		parts[i] = fmt.Sprintf("%s: %s", f.QualifiedName(), f.Type)
	}
	return "[" + strings.Join(parts, ", ") + "]"
}
