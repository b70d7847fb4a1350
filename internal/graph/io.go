package graph

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Edge-list and DOT I/O, so workloads can come from files and runs can be
// visualized.

// ReadEdgeList parses an edge list: "n" on the first line followed by one
// "u v" pair per undirected edge. Blank lines and lines starting with '#'
// are ignored.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	n := -1
	var edges [][2]int32
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if n < 0 {
			if len(fields) != 1 {
				return nil, fmt.Errorf("graph: line %d: expected node count, got %q", line, text)
			}
			v, err := strconv.Atoi(fields[0])
			if err != nil || v < 0 {
				return nil, fmt.Errorf("graph: line %d: bad node count %q", line, fields[0])
			}
			n = v
			continue
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("graph: line %d: expected 'u v', got %q", line, text)
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", line, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", line, err)
		}
		edges = append(edges, [2]int32{int32(u), int32(v)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("graph: empty input")
	}
	return FromEdges(n, edges)
}

// WriteDOT writes the graph (optionally with a coloring as fill colors) in
// Graphviz DOT format for visualization.
func WriteDOT(w io.Writer, g *Graph, c Coloring) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "graph ccolor {"); err != nil {
		return err
	}
	if c != nil {
		// Stable palette→hue mapping.
		seen := make(map[Color]int)
		var order []Color
		for _, x := range c {
			if x == NoColor {
				continue
			}
			if _, ok := seen[x]; !ok {
				seen[x] = 0
				order = append(order, x)
			}
		}
		sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
		for i, x := range order {
			seen[x] = i
		}
		k := len(order)
		if k == 0 {
			k = 1
		}
		for v := 0; v < g.N(); v++ {
			hue := 0.0
			if c[v] != NoColor {
				hue = float64(seen[c[v]]) / float64(k)
			}
			if _, err := fmt.Fprintf(bw,
				"  %d [style=filled fillcolor=\"%.3f 0.6 0.9\" label=\"%d:%d\"];\n",
				v, hue, v, c[v]); err != nil {
				return err
			}
		}
	}
	for v := 0; v < g.N(); v++ {
		for _, u := range g.Neighbors(int32(v)) {
			if int32(v) < u {
				if _, err := fmt.Fprintf(bw, "  %d -- %d;\n", v, u); err != nil {
					return err
				}
			}
		}
	}
	if _, err := fmt.Fprintln(bw, "}"); err != nil {
		return err
	}
	return bw.Flush()
}
