package remicss

import (
	"remicss/internal/adapt"
	"remicss/internal/pathset"
)

// Network topology support: derive model channel sets from graphs with
// per-edge properties, per the PSMT tradition the paper builds on.

// NetworkEdge is a directed link in a network topology, carrying the same
// four properties as a channel.
type NetworkEdge = pathset.Edge

// NetworkGraph is a directed multigraph of NetworkEdges.
type NetworkGraph = pathset.Graph

// NetworkPath is one sender→receiver path through a graph.
type NetworkPath = pathset.Path

// Topology errors.
var (
	ErrBadGraph = pathset.ErrBadGraph
	ErrNoPath   = pathset.ErrNoPath
)

// NewNetworkGraph builds a topology from edges.
func NewNetworkGraph(edges []NetworkEdge) (*NetworkGraph, error) {
	return pathset.NewGraph(edges)
}

// DisjointChannels extracts a maximum set of edge-disjoint paths from src
// to dst and composes each into a model channel: risk and loss compound
// across hops, delay adds, rate bottlenecks. The returned paths parallel
// the channel set's indices.
func DisjointChannels(g *NetworkGraph, src, dst string) (ChannelSet, []NetworkPath, error) {
	paths, err := g.DisjointPaths(src, dst)
	if err != nil {
		return nil, nil, err
	}
	return pathset.ChannelSet(paths), paths, nil
}

// Adaptive parameter control.

// AdaptConfig configures an adaptive parameter controller.
type AdaptConfig = adapt.Config

// AdaptController adjusts (κ, μ) at runtime from measured loss and
// estimated risk.
type AdaptController = adapt.Controller

// ErrRiskUnmet means even κ = n cannot reach the confidentiality target.
var ErrRiskUnmet = adapt.ErrRiskUnmet

// NewAdaptController builds a runtime parameter controller.
func NewAdaptController(cfg AdaptConfig) (*AdaptController, error) {
	return adapt.New(cfg)
}
