package remicss_test

import (
	"errors"
	"testing"
	"time"

	"remicss"
)

func TestDisjointChannelsFacade(t *testing.T) {
	g, err := remicss.NewNetworkGraph([]remicss.NetworkEdge{
		{From: "s", To: "a", Risk: 0.1, Loss: 0.01, Delay: time.Millisecond, Rate: 100},
		{From: "a", To: "t", Risk: 0.1, Loss: 0.01, Delay: time.Millisecond, Rate: 100},
		{From: "s", To: "b", Risk: 0.2, Loss: 0.02, Delay: 2 * time.Millisecond, Rate: 50},
		{From: "b", To: "t", Risk: 0.2, Loss: 0.02, Delay: 2 * time.Millisecond, Rate: 80},
	})
	if err != nil {
		t.Fatal(err)
	}
	set, paths, err := remicss.DisjointChannels(g, "s", "t")
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 2 || len(paths) != 2 {
		t.Fatalf("channels = %d, paths = %d", len(set), len(paths))
	}
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	// Derived channels feed directly into the model.
	if _, err := set.OptimalRate(1.5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := remicss.DisjointChannels(g, "t", "s"); !errors.Is(err, remicss.ErrNoPath) {
		t.Errorf("reverse direction: got %v, want ErrNoPath", err)
	}
}

func TestAdaptControllerFacade(t *testing.T) {
	ctrl, err := remicss.NewAdaptController(remicss.AdaptConfig{
		N: 3, TargetLoss: 0.01, MaxRisk: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.ObserveLoss(0.5)
	_, mu := ctrl.Params()
	if mu <= 1 {
		t.Errorf("mu = %v after loss, want raised", mu)
	}
}
