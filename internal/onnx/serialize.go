package onnx

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
)

// Binary serialization: a compact, deterministic, weight-free encoding used
// for database storage. Matches the paper's design point that "each model
// record uses the storage of hundreds of bytes" because only structure and
// attributes are kept.
//
// Layout (all ints are uvarint unless noted):
//
//	magic "NLQP" | version u8
//	name | family                          (strings are len-prefixed)
//	numInputs | {name, rank, dims...}
//	numNodes  | {name, op, numInputs, inputs..., numAttrs,
//	             {key, kind u8, payload}...}   (attrs in sorted key order)
//	numOutputs | outputs...

const (
	binaryMagic   = "NLQP"
	binaryVersion = 1
)

// EncodeBinary serializes the graph to the compact binary format.
func (g *Graph) EncodeBinary() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(binaryMagic)
	buf.WriteByte(binaryVersion)
	writeString(&buf, g.Name)
	writeString(&buf, g.Family)
	writeUvarint(&buf, uint64(len(g.Inputs)))
	for _, vi := range g.Inputs {
		writeString(&buf, vi.Name)
		writeUvarint(&buf, uint64(len(vi.Shape)))
		for _, d := range vi.Shape {
			writeUvarint(&buf, uint64(d))
		}
	}
	writeUvarint(&buf, uint64(len(g.Nodes)))
	for _, n := range g.Nodes {
		writeString(&buf, n.Name)
		writeString(&buf, string(n.Op))
		writeUvarint(&buf, uint64(len(n.Inputs)))
		for _, in := range n.Inputs {
			writeString(&buf, in)
		}
		keys := n.Attrs.SortedKeys()
		writeUvarint(&buf, uint64(len(keys)))
		for _, k := range keys {
			a := n.Attrs[k]
			writeString(&buf, k)
			buf.WriteByte(byte(a.Kind))
			switch a.Kind {
			case AttrInt:
				writeVarint(&buf, a.I)
			case AttrInts:
				writeUvarint(&buf, uint64(len(a.Ints)))
				for _, v := range a.Ints {
					writeVarint(&buf, v)
				}
			case AttrFloat:
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(a.F))
				buf.Write(b[:])
			case AttrString:
				writeString(&buf, a.S)
			default:
				return nil, fmt.Errorf("onnx: node %q attr %q has invalid kind %d", n.Name, k, a.Kind)
			}
		}
	}
	writeUvarint(&buf, uint64(len(g.Outputs)))
	for _, out := range g.Outputs {
		writeString(&buf, out)
	}
	return buf.Bytes(), nil
}

// ErrCountExceedsInput reports a length prefix that promises more elements
// than the bytes left in the input could encode. DecodeBinary checks every
// prefix before allocating for it, so a short hostile body cannot demand a
// large allocation.
var ErrCountExceedsInput = errors.New("onnx: declared count exceeds remaining input")

var (
	errTruncated = errors.New("onnx: truncated input")
	errVarint    = errors.New("onnx: varint overflows 64 bits")
)

// decoder reads the binary format from one string copy of the input; every
// decoded name, attribute key and string value is a substring of it, so
// strings cost no allocation of their own.
type decoder struct {
	s   string
	pos int
}

func (d *decoder) byte() (byte, error) {
	if d.pos >= len(d.s) {
		return 0, errTruncated
	}
	b := d.s[d.pos]
	d.pos++
	return b, nil
}

func (d *decoder) uvarint() (uint64, error) {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		b, err := d.byte()
		if err != nil {
			return 0, err
		}
		if b < 0x80 {
			if shift == 63 && b > 1 {
				return 0, errVarint
			}
			return x | uint64(b)<<shift, nil
		}
		x |= uint64(b&0x7f) << shift
	}
	return 0, errVarint
}

func (d *decoder) varint() (int64, error) {
	ux, err := d.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, err
}

// count reads the length prefix of a sequence whose elements occupy at least
// minBytes each.
func (d *decoder) count(what string, minBytes int) (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if left := len(d.s) - d.pos; n > uint64(left/minBytes) {
		return 0, fmt.Errorf("%w: %d %s with %d bytes left", ErrCountExceedsInput, n, what, left)
	}
	return int(n), nil
}

func (d *decoder) str() (string, error) {
	n, err := d.count("string bytes", 1)
	if err != nil {
		return "", err
	}
	s := d.s[d.pos : d.pos+n]
	d.pos += n
	return s, nil
}

// opByName interns decoded operator names to the package's constants.
var opByName = func() map[string]OpType {
	m := make(map[string]OpType, len(AllOpTypes))
	for _, op := range AllOpTypes {
		m[string(op)] = op
	}
	return m
}()

// take cuts n elements off the front of *arena, replacing an exhausted arena
// with a fresh chunk, so a graph's many small slices share a few allocations.
// Callers cap chunk by the bytes left in the input.
func take[T any](arena *[]T, n, chunk int) []T {
	if n > len(*arena) {
		*arena = make([]T, max(n, chunk))
	}
	out := (*arena)[:n:n]
	*arena = (*arena)[n:]
	return out
}

// DecodeBinary parses a graph serialized by EncodeBinary and, when the graph
// is structurally valid, attaches its Index: a decoded graph then validates
// and hashes without another pass over names. An invalid graph still
// decodes; Validate reports what is wrong with it.
func DecodeBinary(data []byte) (*Graph, error) {
	d := &decoder{s: string(data)}
	if len(d.s) < len(binaryMagic) || d.s[:len(binaryMagic)] != binaryMagic {
		return nil, fmt.Errorf("onnx: bad magic")
	}
	d.pos = len(binaryMagic)
	ver, err := d.byte()
	if err != nil {
		return nil, err
	}
	if ver != binaryVersion {
		return nil, fmt.Errorf("onnx: unsupported version %d", ver)
	}
	g := &Graph{}
	if g.Name, err = d.str(); err != nil {
		return nil, err
	}
	if g.Family, err = d.str(); err != nil {
		return nil, err
	}
	// The graph's own labels outlive it (database rows, logs); as substrings
	// they would pin the whole input copy for as long.
	g.Name, g.Family = strings.Clone(g.Name), strings.Clone(g.Family)
	nin, err := d.count("inputs", 2)
	if err != nil {
		return nil, err
	}
	g.Inputs = make([]ValueInfo, nin)
	for i := range g.Inputs {
		if g.Inputs[i].Name, err = d.str(); err != nil {
			return nil, err
		}
		rank, err := d.count("dims", 1)
		if err != nil {
			return nil, err
		}
		g.Inputs[i].Shape = make(Shape, rank)
		for k := range g.Inputs[i].Shape {
			v, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			g.Inputs[i].Shape[k] = int(v)
		}
	}
	nnodes, err := d.count("nodes", 4)
	if err != nil {
		return nil, err
	}
	nodes := make([]Node, nnodes)
	g.Nodes = make([]*Node, nnodes)
	var (
		names []string
		ints  []int64
	)
	for i := range nodes {
		n := &nodes[i]
		g.Nodes[i] = n
		if n.Name, err = d.str(); err != nil {
			return nil, err
		}
		op, err := d.str()
		if err != nil {
			return nil, err
		}
		if known, ok := opByName[op]; ok {
			n.Op = known
		} else {
			n.Op = OpType(op)
		}
		numIn, err := d.count("node inputs", 1)
		if err != nil {
			return nil, err
		}
		n.Inputs = take(&names, numIn, min(2*nnodes, len(d.s)-d.pos))
		for j := range n.Inputs {
			if n.Inputs[j], err = d.str(); err != nil {
				return nil, err
			}
		}
		numAttrs, err := d.count("attrs", 3)
		if err != nil {
			return nil, err
		}
		if numAttrs > 0 {
			n.Attrs = make(Attrs, numAttrs)
		}
		for j := 0; j < numAttrs; j++ {
			key, err := d.str()
			if err != nil {
				return nil, err
			}
			kind, err := d.byte()
			if err != nil {
				return nil, err
			}
			a := Attr{Kind: AttrKind(kind)}
			switch a.Kind {
			case AttrInt:
				if a.I, err = d.varint(); err != nil {
					return nil, err
				}
			case AttrInts:
				cnt, err := d.count("ints", 1)
				if err != nil {
					return nil, err
				}
				a.Ints = take(&ints, cnt, min(4*nnodes, len(d.s)-d.pos))
				for k := range a.Ints {
					if a.Ints[k], err = d.varint(); err != nil {
						return nil, err
					}
				}
			case AttrFloat:
				if len(d.s)-d.pos < 8 {
					return nil, errTruncated
				}
				var bits uint64
				for k := 7; k >= 0; k-- {
					bits = bits<<8 | uint64(d.s[d.pos+k])
				}
				d.pos += 8
				a.F = math.Float64frombits(bits)
			case AttrString:
				if a.S, err = d.str(); err != nil {
					return nil, err
				}
			default:
				return nil, fmt.Errorf("onnx: attr %q has invalid kind %d", key, kind)
			}
			n.Attrs[key] = a
		}
	}
	nout, err := d.count("outputs", 1)
	if err != nil {
		return nil, err
	}
	g.Outputs = make([]string, nout)
	for i := range g.Outputs {
		if g.Outputs[i], err = d.str(); err != nil {
			return nil, err
		}
	}
	if left := len(d.s) - d.pos; left != 0 {
		return nil, fmt.Errorf("onnx: %d trailing bytes", left)
	}
	if ix, err := buildIndex(g); err == nil {
		g.derived.Store(ix)
	}
	return g, nil
}

// MarshalJSON-friendly wire forms for human-readable export.

type jsonAttr struct {
	Kind string  `json:"kind"`
	I    int64   `json:"i,omitempty"`
	Ints []int64 `json:"ints,omitempty"`
	F    float64 `json:"f,omitempty"`
	S    string  `json:"s,omitempty"`
}

type jsonNode struct {
	Name   string              `json:"name"`
	Op     string              `json:"op"`
	Inputs []string            `json:"inputs"`
	Attrs  map[string]jsonAttr `json:"attrs,omitempty"`
}

type jsonGraph struct {
	Name    string      `json:"name"`
	Family  string      `json:"family,omitempty"`
	Inputs  []ValueInfo `json:"inputs"`
	Nodes   []jsonNode  `json:"nodes"`
	Outputs []string    `json:"outputs"`
}

// EncodeJSON serializes the graph to indented JSON (for debugging and the
// HTTP API).
func (g *Graph) EncodeJSON() ([]byte, error) {
	jg := jsonGraph{
		Name: g.Name, Family: g.Family, Inputs: g.Inputs, Outputs: g.Outputs,
	}
	for _, n := range g.Nodes {
		jn := jsonNode{Name: n.Name, Op: string(n.Op), Inputs: n.Inputs}
		if len(n.Attrs) > 0 {
			jn.Attrs = make(map[string]jsonAttr, len(n.Attrs))
			for k, a := range n.Attrs {
				jn.Attrs[k] = jsonAttr{Kind: a.Kind.String(), I: a.I, Ints: a.Ints, F: a.F, S: a.S}
			}
		}
		jg.Nodes = append(jg.Nodes, jn)
	}
	return json.MarshalIndent(jg, "", "  ")
}

// DecodeJSON parses a graph serialized by EncodeJSON.
func DecodeJSON(data []byte) (*Graph, error) {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return nil, err
	}
	g := &Graph{Name: jg.Name, Family: jg.Family, Inputs: jg.Inputs, Outputs: jg.Outputs}
	for _, jn := range jg.Nodes {
		n := &Node{Name: jn.Name, Op: OpType(jn.Op), Inputs: jn.Inputs}
		if len(jn.Attrs) > 0 {
			n.Attrs = make(Attrs, len(jn.Attrs))
			for k, ja := range jn.Attrs {
				var kind AttrKind
				switch ja.Kind {
				case "int":
					kind = AttrInt
				case "ints":
					kind = AttrInts
				case "float":
					kind = AttrFloat
				case "string":
					kind = AttrString
				default:
					return nil, fmt.Errorf("onnx: node %q attr %q has unknown kind %q", jn.Name, k, ja.Kind)
				}
				n.Attrs[k] = Attr{Kind: kind, I: ja.I, Ints: ja.Ints, F: ja.F, S: ja.S}
			}
		}
		g.Nodes = append(g.Nodes, n)
	}
	return g, nil
}

func writeUvarint(buf *bytes.Buffer, v uint64) {
	var b [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(b[:], v)
	buf.Write(b[:n])
}

func writeVarint(buf *bytes.Buffer, v int64) {
	var b [binary.MaxVarintLen64]byte
	n := binary.PutVarint(b[:], v)
	buf.Write(b[:n])
}

func writeString(buf *bytes.Buffer, s string) {
	writeUvarint(buf, uint64(len(s)))
	buf.WriteString(s)
}
