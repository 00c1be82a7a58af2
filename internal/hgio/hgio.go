// Package hgio reads and writes hypergraphs: a plain-text format (.hg), a
// JSON encoding, and a reader for the Cornell/Benson simplex format that the
// paper's datasets (https://www.cs.cornell.edu/~arb/data/) are published in.
package hgio

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"hged/internal/hypergraph"
)

// ReadFile reads a hypergraph from path. The codec is picked by sniffing
// the leading bytes — the "HGEDGRF1" magic selects the binary CSR encoding
// no matter what the file is called, and for unknown extensions a leading
// '{' selects JSON with everything else parsed as the text format — with
// the extension (".hg" text, ".json", ".hgb" binary) as a fast path, so
// renamed or extension-less corpus files still load.
func ReadFile(path string) (*hypergraph.Hypergraph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	if head, _ := br.Peek(len(binaryGraphMagic)); string(head) == binaryGraphMagic {
		return ReadBinary(br)
	}
	switch strings.ToLower(filepath.Ext(path)) {
	case ".hg":
		return ReadText(br)
	case ".json":
		return ReadJSON(br)
	case ".hgb":
		// Extension says binary but the magic didn't match; let ReadBinary
		// report the precise header error.
		return ReadBinary(br)
	}
	// Unknown extension: sniff the first non-whitespace byte — '{' starts
	// the JSON encoding, anything else is handed to the text parser (which
	// reports a line-anchored error for non-graph content).
	head, _ := br.Peek(512)
	for _, c := range head {
		switch c {
		case ' ', '\t', '\r', '\n':
			continue
		case '{':
			return ReadJSON(br)
		}
		break
	}
	return ReadText(br)
}

// WriteText writes g in the .hg format:
//
//	# optional comments
//	nodes <n>
//	label <node> <label>        (omitted for label 0)
//	edge <label> <v1> <v2> ...
func WriteText(w io.Writer, g *hypergraph.Hypergraph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "nodes %d\n", g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		if l := g.NodeLabel(hypergraph.NodeID(v)); l != hypergraph.NoLabel {
			fmt.Fprintf(bw, "label %d %d\n", v, l)
		}
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(bw, "edge %d", e.Label)
		for _, v := range e.Nodes {
			fmt.Fprintf(bw, " %d", v)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// MaxNodes bounds the node count a reader will allocate for, protecting
// against hostile or corrupt headers (a bare "nodes 10000000000000" would
// otherwise attempt a terabyte allocation).
const MaxNodes = 1 << 24

// maxLineBytes is the longest line (or token) the text readers accept. Their
// scanners start from a 64 KiB buffer and grow it only for longer lines.
const maxLineBytes = 1 << 24

// ReadText parses the .hg format written by WriteText. Blank lines and
// lines starting with '#' are ignored.
func ReadText(r io.Reader) (*hypergraph.Hypergraph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), maxLineBytes)
	var g *hypergraph.Hypergraph
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "nodes":
			if g != nil {
				return nil, fmt.Errorf("hgio: line %d: duplicate nodes directive", lineNo)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("hgio: line %d: nodes takes one argument", lineNo)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 || n > MaxNodes {
				return nil, fmt.Errorf("hgio: line %d: bad node count %q (max %d)", lineNo, fields[1], MaxNodes)
			}
			g = hypergraph.New(n)
		case "label":
			if g == nil {
				return nil, fmt.Errorf("hgio: line %d: label before nodes", lineNo)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("hgio: line %d: label takes two arguments", lineNo)
			}
			v, err1 := strconv.Atoi(fields[1])
			l, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil || v < 0 || v >= g.NumNodes() {
				return nil, fmt.Errorf("hgio: line %d: bad label directive %q", lineNo, line)
			}
			g.SetNodeLabel(hypergraph.NodeID(v), hypergraph.Label(l))
		case "edge":
			if g == nil {
				return nil, fmt.Errorf("hgio: line %d: edge before nodes", lineNo)
			}
			if len(fields) < 2 {
				return nil, fmt.Errorf("hgio: line %d: edge needs a label", lineNo)
			}
			l, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("hgio: line %d: bad edge label %q", lineNo, fields[1])
			}
			nodes := make([]hypergraph.NodeID, 0, len(fields)-2)
			for _, f := range fields[2:] {
				v, err := strconv.Atoi(f)
				if err != nil || v < 0 || v >= g.NumNodes() {
					return nil, fmt.Errorf("hgio: line %d: bad edge member %q", lineNo, f)
				}
				nodes = append(nodes, hypergraph.NodeID(v))
			}
			g.AddEdge(hypergraph.Label(l), nodes...)
		default:
			return nil, fmt.Errorf("hgio: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("hgio: %w", err)
	}
	if g == nil {
		return nil, fmt.Errorf("hgio: missing nodes directive")
	}
	return g, nil
}

// jsonGraph is the JSON wire form.
type jsonGraph struct {
	NodeLabels []hypergraph.Label `json:"nodeLabels"`
	Edges      []jsonEdge         `json:"edges"`
}

type jsonEdge struct {
	Label hypergraph.Label    `json:"label"`
	Nodes []hypergraph.NodeID `json:"nodes"`
}

// WriteJSON writes g as JSON.
func WriteJSON(w io.Writer, g *hypergraph.Hypergraph) error {
	jg := jsonGraph{NodeLabels: make([]hypergraph.Label, g.NumNodes())}
	for v := 0; v < g.NumNodes(); v++ {
		jg.NodeLabels[v] = g.NodeLabel(hypergraph.NodeID(v))
	}
	for _, e := range g.Edges() {
		jg.Edges = append(jg.Edges, jsonEdge{Label: e.Label, Nodes: e.Nodes})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(jg)
}

// ReadJSON parses the JSON produced by WriteJSON.
func ReadJSON(r io.Reader) (*hypergraph.Hypergraph, error) {
	var jg jsonGraph
	if err := json.NewDecoder(r).Decode(&jg); err != nil {
		return nil, fmt.Errorf("hgio: %w", err)
	}
	g := hypergraph.NewLabeled(jg.NodeLabels)
	for i, e := range jg.Edges {
		for _, v := range e.Nodes {
			if int(v) < 0 || int(v) >= g.NumNodes() {
				return nil, fmt.Errorf("hgio: edge %d member %d out of range", i, v)
			}
		}
		g.AddEdge(e.Label, e.Nodes...)
	}
	return g, nil
}

// ReadBenson parses the Cornell simplex format: nverts holds one integer per
// simplex (its cardinality), simplices holds the concatenated 1-indexed
// member lists, and labels (optional, may be nil) holds one integer label
// per node. Hyperedges receive label 0.
func ReadBenson(nverts, simplices, labels io.Reader) (*hypergraph.Hypergraph, error) {
	sizes, err := readInts(nverts)
	if err != nil {
		return nil, fmt.Errorf("hgio: nverts: %w", err)
	}
	members, err := readInts(simplices)
	if err != nil {
		return nil, fmt.Errorf("hgio: simplices: %w", err)
	}
	total := 0
	maxNode := 0
	for _, s := range sizes {
		if s < 0 {
			return nil, fmt.Errorf("hgio: negative simplex size %d", s)
		}
		total += s
	}
	if total != len(members) {
		return nil, fmt.Errorf("hgio: nverts sums to %d but simplices has %d entries", total, len(members))
	}
	for _, v := range members {
		if v < 1 {
			return nil, fmt.Errorf("hgio: simplex member %d is not 1-indexed", v)
		}
		if v > MaxNodes {
			return nil, fmt.Errorf("hgio: simplex member %d exceeds the node limit %d", v, MaxNodes)
		}
		if v > maxNode {
			maxNode = v
		}
	}
	var nodeLabels []int
	if labels != nil {
		nodeLabels, err = readInts(labels)
		if err != nil {
			return nil, fmt.Errorf("hgio: labels: %w", err)
		}
		if len(nodeLabels) > maxNode {
			maxNode = len(nodeLabels)
		}
	}
	g := hypergraph.New(maxNode)
	for i, l := range nodeLabels {
		g.SetNodeLabel(hypergraph.NodeID(i), hypergraph.Label(l))
	}
	pos := 0
	for _, s := range sizes {
		nodes := make([]hypergraph.NodeID, s)
		for i := 0; i < s; i++ {
			nodes[i] = hypergraph.NodeID(members[pos] - 1)
			pos++
		}
		g.AddEdge(hypergraph.NoLabel, nodes...)
	}
	return g, nil
}

func readInts(r io.Reader) ([]int, error) {
	if r == nil {
		return nil, nil
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), maxLineBytes)
	sc.Split(bufio.ScanWords)
	var out []int
	for sc.Scan() {
		v, err := strconv.Atoi(sc.Text())
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", sc.Text())
		}
		out = append(out, v)
	}
	return out, sc.Err()
}
