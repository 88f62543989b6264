package lint

import "testing"

// TestConcSummaries pins the concurrency half of the interprocedural
// engine against the rule fixtures: the blocks bit with its provenance
// chain, direct and through a module callee, and the receives-cancel
// bit that separates a joinable goroutine from a leak.
func TestConcSummaries(t *testing.T) {
	t.Run("direct", func(t *testing.T) {
		pkgs := []*Package{loadFixtureT(t, "goleak")}
		a := Analyze(pkgs)
		rel := "internal/fixture/goleak"

		pump := factsOf(t, a, findFunc(t, pkgs, rel, "", "pump"))
		if !pump.blocks {
			t.Fatal("pump not summarized as blocking")
		}
		if want := "time.Sleep"; pump.blocksWhy != want {
			t.Errorf("pump provenance = %q, want %q", pump.blocksWhy, want)
		}
		if pump.receivesCancel {
			t.Error("pump observes no signal but is summarized as cancelable")
		}

		joined := factsOf(t, a, findFunc(t, pkgs, rel, "", "joined"))
		if !joined.blocks {
			t.Error("joined (Sleep) not summarized as blocking")
		}
		if !joined.receivesCancel {
			t.Error("joined signals wg.Done but is not summarized as cancelable")
		}
	})

	t.Run("transitive", func(t *testing.T) {
		pkgs := []*Package{loadFixtureT(t, "lockhold")}
		a := Analyze(pkgs)
		rel := "internal/fixture/lockhold"

		push := factsOf(t, a, findFunc(t, pkgs, rel, "S", "Push"))
		if !push.blocks {
			t.Fatal("Push not summarized as blocking through its callee")
		}
		if want := "S.flush ← channel send"; push.blocksWhy != want {
			t.Errorf("Push provenance = %q, want %q", push.blocksWhy, want)
		}
	})
}
