package pathset

import (
	"errors"
	"math"
	"testing"
	"time"
)

// diamond builds the classic two-disjoint-path topology:
//
//	s -> a -> t
//	s -> b -> t
func diamond() []Edge {
	return []Edge{
		{From: "s", To: "a", Risk: 0.1, Loss: 0.01, Delay: time.Millisecond, Rate: 100},
		{From: "a", To: "t", Risk: 0.2, Loss: 0.02, Delay: 2 * time.Millisecond, Rate: 50},
		{From: "s", To: "b", Risk: 0.3, Loss: 0.03, Delay: 3 * time.Millisecond, Rate: 200},
		{From: "b", To: "t", Risk: 0.4, Loss: 0.04, Delay: 4 * time.Millisecond, Rate: 80},
	}
}

func TestDisjointPathsDiamond(t *testing.T) {
	g, err := NewGraph(diamond())
	if err != nil {
		t.Fatal(err)
	}
	paths, err := g.DisjointPaths("s", "t")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("found %d paths, want 2", len(paths))
	}
	// Edge-disjointness.
	seen := map[int]bool{}
	for _, p := range paths {
		for _, idx := range p.EdgeIndices {
			if seen[idx] {
				t.Fatalf("edge %d used twice", idx)
			}
			seen[idx] = true
		}
	}
}

func TestPathChannelComposition(t *testing.T) {
	g, err := NewGraph(diamond())
	if err != nil {
		t.Fatal(err)
	}
	paths, err := g.DisjointPaths("s", "t")
	if err != nil {
		t.Fatal(err)
	}
	set := ChannelSet(paths)
	if err := set.Validate(); err != nil {
		t.Fatalf("derived channel set invalid: %v", err)
	}
	// Identify the s->a->t path and check its composition.
	for _, p := range paths {
		nodes := p.Nodes()
		if len(nodes) == 3 && nodes[1] == "a" {
			c := p.Channel()
			wantRisk := 1 - (1-0.1)*(1-0.2)
			if math.Abs(c.Risk-wantRisk) > 1e-12 {
				t.Errorf("risk = %v, want %v", c.Risk, wantRisk)
			}
			wantLoss := 1 - (1-0.01)*(1-0.02)
			if math.Abs(c.Loss-wantLoss) > 1e-12 {
				t.Errorf("loss = %v, want %v", c.Loss, wantLoss)
			}
			if c.Delay != 3*time.Millisecond {
				t.Errorf("delay = %v, want 3ms", c.Delay)
			}
			if c.Rate != 50 {
				t.Errorf("rate = %v, want bottleneck 50", c.Rate)
			}
		}
	}
}

// TestBridgeRequiresResidual builds a graph where greedy shortest-path
// grabbing picks a path that blocks the second one; only a max-flow
// residual search finds both.
//
//	s -> a -> t
//	s -> b -> t
//	and the tempting "zig" edge a -> b.
//
// Greedy BFS may route s->a->b->t, blocking both simple paths; flow
// augmentation must recover s->a->t and s->b->t.
func TestBridgeRequiresResidual(t *testing.T) {
	edges := []Edge{
		{From: "s", To: "a", Risk: 0.1, Rate: 1},
		{From: "a", To: "b", Risk: 0.1, Rate: 1}, // the trap
		{From: "b", To: "t", Risk: 0.1, Rate: 1},
		{From: "a", To: "t", Risk: 0.1, Rate: 1},
		{From: "s", To: "b", Risk: 0.1, Rate: 1},
	}
	g, err := NewGraph(edges)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := g.DisjointPaths("s", "t")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("found %d paths, want 2 (residual cancellation required)", len(paths))
	}
}

func TestParallelEdgesAreDistinctChannels(t *testing.T) {
	edges := []Edge{
		{From: "s", To: "t", Risk: 0.1, Rate: 10},
		{From: "s", To: "t", Risk: 0.2, Rate: 20},
		{From: "s", To: "t", Risk: 0.3, Rate: 30},
	}
	g, err := NewGraph(edges)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := g.DisjointPaths("s", "t")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("found %d paths, want 3 parallel channels", len(paths))
	}
}

func TestNoPath(t *testing.T) {
	g, err := NewGraph([]Edge{{From: "a", To: "b", Risk: 0, Rate: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.DisjointPaths("b", "a"); !errors.Is(err, ErrNoPath) {
		t.Errorf("got %v, want ErrNoPath", err)
	}
	if _, err := g.DisjointPaths("a", "a"); !errors.Is(err, ErrBadGraph) {
		t.Errorf("src==dst: got %v, want ErrBadGraph", err)
	}
}

func TestGraphValidation(t *testing.T) {
	cases := []struct {
		name string
		e    Edge
	}{
		{"self loop", Edge{From: "a", To: "a", Rate: 1}},
		{"unnamed", Edge{From: "", To: "b", Rate: 1}},
		{"bad risk", Edge{From: "a", To: "b", Risk: 1.5, Rate: 1}},
		{"loss one", Edge{From: "a", To: "b", Loss: 1, Rate: 1}},
		{"negative delay", Edge{From: "a", To: "b", Delay: -time.Second, Rate: 1}},
		{"zero rate", Edge{From: "a", To: "b"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewGraph([]Edge{tc.e}); !errors.Is(err, ErrBadGraph) {
				t.Errorf("got %v, want ErrBadGraph", err)
			}
		})
	}
	if _, err := NewGraph(nil); !errors.Is(err, ErrBadGraph) {
		t.Error("empty graph accepted")
	}
}

// TestNodeDisjointFiltering checks that DisjointPaths returns edge-disjoint,
// not node-disjoint, paths: a caller that needs node-disjoint routes must
// filter paths that share an interior node itself.
func TestNodeDisjointFiltering(t *testing.T) {
	// Two edge-disjoint paths sharing interior node m, plus one through a
	// distinct node.
	edges := []Edge{
		{From: "s", To: "m", Risk: 0.1, Rate: 1},
		{From: "m", To: "t", Risk: 0.1, Rate: 1},
		{From: "s", To: "m", Risk: 0.1, Rate: 1},
		{From: "m", To: "t", Risk: 0.1, Rate: 1},
		{From: "s", To: "x", Risk: 0.1, Rate: 1},
		{From: "x", To: "t", Risk: 0.1, Rate: 1},
	}
	g, err := NewGraph(edges)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := g.DisjointPaths("s", "t")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("edge-disjoint paths = %d, want 3", len(paths))
	}
	usedM, usedX := 0, 0
	for _, p := range paths {
		for _, n := range p.Nodes() {
			switch n {
			case "m":
				usedM++
			case "x":
				usedX++
			}
		}
	}
	if usedM != 2 || usedX != 1 {
		t.Errorf("paths via m = %d, via x = %d; want 2 and 1", usedM, usedX)
	}
}

// TestLargerMesh checks flow correctness on a denser topology with a known
// max-flow value.
func TestLargerMesh(t *testing.T) {
	// s has 3 outgoing edges, t has 3 incoming, interior is a full bipartite
	// mesh {a,b,c} x {x,y,z}: max edge-disjoint s-t paths = 3.
	var edges []Edge
	mids1 := []string{"a", "b", "c"}
	mids2 := []string{"x", "y", "z"}
	for _, m := range mids1 {
		edges = append(edges, Edge{From: "s", To: m, Risk: 0.1, Rate: 1})
	}
	for _, m1 := range mids1 {
		for _, m2 := range mids2 {
			edges = append(edges, Edge{From: m1, To: m2, Risk: 0.1, Rate: 1})
		}
	}
	for _, m := range mids2 {
		edges = append(edges, Edge{From: m, To: "t", Risk: 0.1, Rate: 1})
	}
	g, err := NewGraph(edges)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := g.DisjointPaths("s", "t")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("found %d paths, want 3", len(paths))
	}
	set := ChannelSet(paths)
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	// Each path has 3 hops of risk 0.1: composed risk 1-0.9^3.
	wantRisk := 1 - math.Pow(0.9, 3)
	for i, c := range set {
		if math.Abs(c.Risk-wantRisk) > 1e-12 {
			t.Errorf("path %d risk = %v, want %v", i, c.Risk, wantRisk)
		}
	}
}
