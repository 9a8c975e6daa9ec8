// Package pathset derives channel sets from network topologies.
//
// The PSMT literature the paper builds on (Dolev et al.) models the network
// as a graph and asks how many disjoint paths exist between sender and
// receiver; the paper then abstracts each disjoint path as a channel
// quadruple (z, l, d, r) and notes (Section III-B) that overlapping
// channels are strictly worse: a shared edge gives an eavesdropper multiple
// shares for the price of one and couples loss, delay, and capacity.
//
// This package makes that story concrete:
//
//   - Graph models a network whose edges carry the same four properties as
//     channels.
//   - DisjointPaths extracts a maximum set of edge-disjoint sender→receiver
//     paths (max-flow with unit edge capacities).
//   - Channel composes a path's edge properties into the model's quadruple:
//     risk and loss compound across edges, delay adds, rate bottlenecks.
package pathset

import (
	"errors"
	"fmt"
	"math"
	"time"

	"remicss/internal/core"
)

// Edge is a directed network link with the model's four properties.
type Edge struct {
	// From and To are node identifiers.
	From, To string
	// Risk is the probability an adversary observes a share crossing this
	// edge.
	Risk float64
	// Loss is the probability a share is dropped on this edge.
	Loss float64
	// Delay is the edge's one-way latency.
	Delay time.Duration
	// Rate is the edge capacity in share symbols per second.
	Rate float64
}

// Validate checks the edge's properties.
func (e Edge) Validate() error {
	switch {
	case e.From == "" || e.To == "":
		return fmt.Errorf("%w: unnamed endpoint on edge %q->%q", ErrBadGraph, e.From, e.To)
	case e.From == e.To:
		return fmt.Errorf("%w: self-loop at %q", ErrBadGraph, e.From)
	case e.Risk < 0 || e.Risk > 1 || math.IsNaN(e.Risk):
		return fmt.Errorf("%w: edge %s->%s risk %v", ErrBadGraph, e.From, e.To, e.Risk)
	case e.Loss < 0 || e.Loss >= 1 || math.IsNaN(e.Loss):
		return fmt.Errorf("%w: edge %s->%s loss %v", ErrBadGraph, e.From, e.To, e.Loss)
	case e.Delay < 0:
		return fmt.Errorf("%w: edge %s->%s delay %v", ErrBadGraph, e.From, e.To, e.Delay)
	case e.Rate <= 0 || math.IsNaN(e.Rate) || math.IsInf(e.Rate, 0):
		return fmt.Errorf("%w: edge %s->%s rate %v", ErrBadGraph, e.From, e.To, e.Rate)
	}
	return nil
}

// ErrBadGraph marks malformed topologies.
var ErrBadGraph = errors.New("pathset: invalid graph")

// ErrNoPath means the receiver is unreachable from the sender.
var ErrNoPath = errors.New("pathset: no path between endpoints")

// Graph is a directed multigraph. Parallel edges are allowed (two cables
// between the same routers are distinct channels-in-waiting).
type Graph struct {
	edges []Edge
	adj   map[string][]int // node -> indices into edges
}

// NewGraph builds a graph from edges.
func NewGraph(edges []Edge) (*Graph, error) {
	if len(edges) == 0 {
		return nil, fmt.Errorf("%w: no edges", ErrBadGraph)
	}
	g := &Graph{adj: make(map[string][]int)}
	for _, e := range edges {
		if err := e.Validate(); err != nil {
			return nil, err
		}
		g.adj[e.From] = append(g.adj[e.From], len(g.edges))
		g.edges = append(g.edges, e)
	}
	return g, nil
}

// Path is a sequence of edge indices from sender to receiver.
type Path struct {
	// EdgeIndices index into the graph's edge list, in path order.
	EdgeIndices []int
	graph       *Graph
}

// Edges returns the path's edges in order.
func (p Path) Edges() []Edge {
	out := make([]Edge, len(p.EdgeIndices))
	for i, idx := range p.EdgeIndices {
		out[i] = p.graph.edges[idx]
	}
	return out
}

// Nodes returns the node sequence the path visits.
func (p Path) Nodes() []string {
	if len(p.EdgeIndices) == 0 {
		return nil
	}
	out := []string{p.graph.edges[p.EdgeIndices[0]].From}
	for _, idx := range p.EdgeIndices {
		out = append(out, p.graph.edges[idx].To)
	}
	return out
}

// Channel composes the path's edges into the model's channel quadruple:
// a share is observed if any edge leaks it (risk compounds), lost if any
// edge drops it (loss compounds), delayed by the sum, and the path rate is
// the bottleneck edge's rate.
func (p Path) Channel() core.Channel {
	var c core.Channel
	c.Rate = math.Inf(1)
	survive := 1.0
	unobserved := 1.0
	for _, e := range p.Edges() {
		unobserved *= 1 - e.Risk
		survive *= 1 - e.Loss
		c.Delay += e.Delay
		if e.Rate < c.Rate {
			c.Rate = e.Rate
		}
	}
	c.Risk = 1 - unobserved
	c.Loss = 1 - survive
	return c
}

// DisjointPaths extracts a maximum cardinality set of edge-disjoint paths
// from src to dst using BFS augmentation over unit edge capacities
// (Edmonds–Karp on the unit-capacity graph). Paths are returned in
// discovery order; each is simple with respect to edges but may share
// nodes, matching the PSMT edge-disjointness notion.
func (g *Graph) DisjointPaths(src, dst string) ([]Path, error) {
	if src == dst {
		return nil, fmt.Errorf("%w: src == dst", ErrBadGraph)
	}
	used := make([]bool, len(g.edges))
	// Residual reverse usage: traversing an edge backwards cancels it.
	var paths [][]int
	for {
		parentEdge := g.augment(src, dst, used)
		if parentEdge == nil {
			break
		}
		// Walk back from dst collecting the augmenting path, applying
		// residual cancellation.
		for _, idx := range parentEdge {
			used[idx] = !used[idx]
		}
		paths = append(paths, parentEdge)
	}
	if len(paths) == 0 {
		return nil, ErrNoPath
	}
	// The used[] flags now mark the final flow; decompose it into paths.
	return g.decompose(src, dst, used)
}

// augment finds one augmenting path of edges (forward unused, or backward
// used) from src to dst and returns the forward-oriented edge index list,
// or nil if none exists.
func (g *Graph) augment(src, dst string, used []bool) []int {
	type hop struct {
		node string
		via  int  // edge index
		fwd  bool // traversed forward
		prev int  // index into visitOrder, -1 for root
	}
	visitOrder := []hop{{node: src, via: -1, prev: -1}}
	seen := map[string]bool{src: true}
	// Build reverse adjacency for residual traversal.
	radj := make(map[string][]int)
	for i, e := range g.edges {
		if used[i] {
			radj[e.To] = append(radj[e.To], i)
		}
	}
	for qi := 0; qi < len(visitOrder); qi++ {
		cur := visitOrder[qi]
		if cur.node == dst {
			// Reconstruct.
			var edges []int
			for i := qi; visitOrder[i].prev != -1; i = visitOrder[i].prev {
				edges = append(edges, visitOrder[i].via)
			}
			return edges
		}
		for _, idx := range g.adj[cur.node] {
			e := g.edges[idx]
			if used[idx] || seen[e.To] {
				continue
			}
			seen[e.To] = true
			visitOrder = append(visitOrder, hop{node: e.To, via: idx, fwd: true, prev: qi})
		}
		for _, idx := range radj[cur.node] {
			e := g.edges[idx]
			if seen[e.From] {
				continue
			}
			// Traversing a used edge backwards: the "arrival" node is its
			// tail.
			seen[e.From] = true
			visitOrder = append(visitOrder, hop{node: e.From, via: idx, fwd: false, prev: qi})
		}
	}
	return nil
}

// decompose splits the flow marked by used[] into edge-disjoint paths.
func (g *Graph) decompose(src, dst string, used []bool) ([]Path, error) {
	remaining := append([]bool(nil), used...)
	var paths []Path
	for {
		var trail []int
		node := src
		for node != dst {
			found := -1
			for _, idx := range g.adj[node] {
				if remaining[idx] {
					found = idx
					break
				}
			}
			if found == -1 {
				break
			}
			remaining[found] = false
			trail = append(trail, found)
			node = g.edges[found].To
		}
		if node != dst || len(trail) == 0 {
			break
		}
		paths = append(paths, Path{EdgeIndices: trail, graph: g})
	}
	if len(paths) == 0 {
		return nil, ErrNoPath
	}
	return paths, nil
}

// ChannelSet converts paths into the model's channel set, in path order.
func ChannelSet(paths []Path) core.Set {
	set := make(core.Set, len(paths))
	for i, p := range paths {
		set[i] = p.Channel()
	}
	return set
}
