package onnx

import (
	"fmt"
	"sort"
	"strconv"
)

// AttrKind discriminates the value stored in an Attr.
type AttrKind uint8

// Attribute kinds, mirroring the subset of ONNX AttributeProto types that
// latency-relevant operators use.
const (
	AttrInt AttrKind = iota + 1
	AttrInts
	AttrFloat
	AttrString
)

func (k AttrKind) String() string {
	switch k {
	case AttrInt:
		return "int"
	case AttrInts:
		return "ints"
	case AttrFloat:
		return "float"
	case AttrString:
		return "string"
	default:
		return fmt.Sprintf("AttrKind(%d)", uint8(k))
	}
}

// Attr is a single typed operator attribute (e.g. kernel_shape, strides).
type Attr struct {
	Kind AttrKind
	I    int64
	Ints []int64
	F    float64
	S    string
}

// IntAttr builds an integer attribute.
func IntAttr(v int64) Attr { return Attr{Kind: AttrInt, I: v} }

// IntsAttr builds an integer-list attribute.
func IntsAttr(v ...int64) Attr { return Attr{Kind: AttrInts, Ints: v} }

// FloatAttr builds a float attribute.
func FloatAttr(v float64) Attr { return Attr{Kind: AttrFloat, F: v} }

// StringAttr builds a string attribute.
func StringAttr(v string) Attr { return Attr{Kind: AttrString, S: v} }

// Equal reports whether two attributes have identical kind and value.
func (a Attr) Equal(b Attr) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case AttrInt:
		return a.I == b.I
	case AttrInts:
		if len(a.Ints) != len(b.Ints) {
			return false
		}
		for i := range a.Ints {
			if a.Ints[i] != b.Ints[i] {
				return false
			}
		}
		return true
	case AttrFloat:
		return a.F == b.F
	case AttrString:
		return a.S == b.S
	}
	return false
}

// String renders the attribute value in a canonical, hash-stable form.
func (a Attr) String() string { return string(a.appendValue(nil)) }

// appendValue appends the canonical rendering of the value to dst. The bytes
// feed the persisted graph hash, so the formats are frozen.
func (a Attr) appendValue(dst []byte) []byte {
	switch a.Kind {
	case AttrInt:
		return strconv.AppendInt(dst, a.I, 10)
	case AttrInts:
		dst = append(dst, '[')
		for i, v := range a.Ints {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, v, 10)
		}
		return append(dst, ']')
	case AttrFloat:
		return strconv.AppendFloat(dst, a.F, 'g', -1, 64)
	case AttrString:
		return strconv.AppendQuote(dst, a.S)
	default:
		return append(dst, "<invalid>"...)
	}
}

// Attrs maps attribute names to values.
type Attrs map[string]Attr

// Clone returns a deep copy of the attribute map.
func (as Attrs) Clone() Attrs {
	if as == nil {
		return nil
	}
	out := make(Attrs, len(as))
	for k, v := range as {
		if v.Kind == AttrInts {
			v.Ints = append([]int64(nil), v.Ints...)
		}
		out[k] = v
	}
	return out
}

// Int returns the named integer attribute, or def when absent.
func (as Attrs) Int(name string, def int64) int64 {
	if a, ok := as[name]; ok && a.Kind == AttrInt {
		return a.I
	}
	return def
}

// Ints returns the named integer-list attribute, or def when absent.
func (as Attrs) Ints(name string, def []int64) []int64 {
	if a, ok := as[name]; ok && a.Kind == AttrInts {
		return a.Ints
	}
	return def
}

// Float returns the named float attribute, or def when absent.
func (as Attrs) Float(name string, def float64) float64 {
	if a, ok := as[name]; ok && a.Kind == AttrFloat {
		return a.F
	}
	return def
}

// Str returns the named string attribute, or def when absent.
func (as Attrs) Str(name, def string) string {
	if a, ok := as[name]; ok && a.Kind == AttrString {
		return a.S
	}
	return def
}

// SortedKeys returns the attribute names in lexicographic order. Both graph
// hashing and serialization iterate attributes through this to stay
// deterministic across map iteration orders.
func (as Attrs) SortedKeys() []string {
	keys := make([]string, 0, len(as))
	for k := range as {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Canonical renders the full attribute map as a single canonical string,
// e.g. `kernel_shape=[3,3];strides=[1,1]`. Used by the graph hash (Eq. 1 of
// the paper: f_sort over node attributes).
func (as Attrs) Canonical() string { return string(as.AppendCanonical(nil)) }

// AppendCanonical appends the Canonical rendering to dst without building
// intermediate strings.
func (as Attrs) AppendCanonical(dst []byte) []byte {
	if len(as) == 0 {
		return dst
	}
	type entry struct {
		key string
		a   Attr
	}
	var stack [8]entry // operators carry at most a handful of attributes
	sorted := stack[:0]
	for k, a := range as {
		sorted = append(sorted, entry{k, a})
		for i := len(sorted) - 1; i > 0 && sorted[i].key < sorted[i-1].key; i-- {
			sorted[i], sorted[i-1] = sorted[i-1], sorted[i]
		}
	}
	for i := range sorted {
		if i > 0 {
			dst = append(dst, ';')
		}
		dst = append(dst, sorted[i].key...)
		dst = append(dst, '=')
		dst = sorted[i].a.appendValue(dst)
	}
	return dst
}

// Equal reports whether two attribute maps are identical.
func (as Attrs) Equal(bs Attrs) bool {
	if len(as) != len(bs) {
		return false
	}
	for k, a := range as {
		b, ok := bs[k]
		if !ok || !a.Equal(b) {
			return false
		}
	}
	return true
}
