package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/coalition"
)

// hiddenBound exposes only the SocialGame methods of a charger game, so
// the engine cannot see its LowerBounder and evaluates every Share.
type hiddenBound struct{ coalition.SocialGame }

// countedGame counts Share evaluations; embedding *chargerGame keeps
// its ShareLowerBound visible to the engine.
type countedGame struct {
	*chargerGame
	shares *int
}

func (g countedGame) Share(i, s int) float64 {
	*g.shares++
	return g.chargerGame.Share(i, s)
}

// countedHidden counts Share evaluations with the bound hidden.
type countedHidden struct {
	hiddenBound
	shares *int
}

func (g countedHidden) Share(i, s int) float64 {
	*g.shares++
	return g.hiddenBound.Share(i, s)
}

// pruneInstances returns the stationary, capacitated and mobile
// instances the pruning tests sweep.
func pruneInstances(seed int64) map[string]*Instance {
	r := rand.New(rand.NewSource(seed))
	n, m := 10+r.Intn(30), 2+r.Intn(6)
	return map[string]*Instance{
		"stationary":  randInstance(r, n, m),
		"capacitated": warmInstance(r, n, m, true),
		"mobile":      randMobileInstance(r, n, m),
	}
}

// runGame runs the Selfish dynamics over wrap(game) from the game's
// standard initial assignment, in a shuffled visiting order when shuffle
// is set.
func runGame(t *testing.T, cm *CostModel, scheme SharingScheme, wrap func(*chargerGame) coalition.Game, shuffle bool) coalition.Result {
	t.Helper()
	g, err := newChargerGame(cm, scheme)
	if err != nil {
		t.Fatal(err)
	}
	init, err := NewWarmStart().seed(cm, g.chargerOf, g.firstSlot)
	if err != nil {
		t.Fatal(err)
	}
	g.reset(init)
	opts := coalition.Options{Rule: coalition.Selfish}
	if shuffle {
		opts.Rand = rand.New(rand.NewSource(42))
	}
	res, err := coalition.Run(wrap(g), init, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPruningChangesNothing pins the move-cost lower bound as exact:
// the switch dynamics over a charger game must reach the same
// assignment in the same passes and switches whether the engine sees
// the bound or not, on stationary, capacitated and mobile PDS instances
// and in both visiting orders. Under ESS the bound is -Inf, so the
// engine must evaluate exactly as many shares with and without it.
func TestPruningChangesNothing(t *testing.T) {
	pruned, total := 0, 0
	for seed := int64(1); seed <= 15; seed++ {
		for kind, in := range pruneInstances(seed) {
			cm := mustCostModel(t, in)
			for _, scheme := range []SharingScheme{PDS{}, ESS{}} {
				for _, shuffle := range []bool{false, true} {
					tag := fmt.Sprintf("seed %d %s %s shuffle=%v", seed, kind, scheme.Name(), shuffle)
					withShares, hiddenShares := 0, 0
					withRes := runGame(t, cm, scheme, func(g *chargerGame) coalition.Game {
						return countedGame{g, &withShares}
					}, shuffle)
					hideRes := runGame(t, cm, scheme, func(g *chargerGame) coalition.Game {
						return countedHidden{hiddenBound{g}, &hiddenShares}
					}, shuffle)
					if !reflect.DeepEqual(withRes, hideRes) {
						t.Fatalf("%s: pruned run %+v, unpruned %+v", tag, withRes, hideRes)
					}
					switch scheme.(type) {
					case ESS:
						if withShares != hiddenShares {
							t.Fatalf("%s: ESS pruned %d of %d share evaluations", tag, hiddenShares-withShares, hiddenShares)
						}
					case PDS:
						if withShares > hiddenShares {
							t.Fatalf("%s: the bound added share evaluations (%d > %d)", tag, withShares, hiddenShares)
						}
						pruned += hiddenShares - withShares
						total += hiddenShares
					}
				}
			}
		}
	}
	if pruned == 0 {
		t.Errorf("the PDS bound never pruned a share evaluation (of %d)", total)
	}
	t.Logf("PDS bound pruned %d of %d share evaluations", pruned, total)
}

// TestShareLowerBoundHolds checks the bound itself in every state the
// dynamics pass through: under PDS it never exceeds the share it bounds,
// and under ESS it is -Inf.
func TestShareLowerBoundHolds(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		for kind, in := range pruneInstances(seed) {
			cm := mustCostModel(t, in)
			for _, scheme := range []SharingScheme{PDS{}, ESS{}} {
				g, err := newChargerGame(cm, scheme)
				if err != nil {
					t.Fatal(err)
				}
				init, err := NewWarmStart().seed(cm, g.chargerOf, g.firstSlot)
				if err != nil {
					t.Fatal(err)
				}
				g.reset(init)
				res, err := coalition.Run(g, init, coalition.Options{Rule: coalition.Selfish})
				if err != nil {
					t.Fatal(err)
				}
				for _, assign := range [][]int{init, res.Assignment} {
					g.reset(assign)
					for i := 0; i < g.NumAgents(); i++ {
						for s := 0; s < g.NumStrategies(); s++ {
							lb, sh := g.ShareLowerBound(i, s), g.Share(i, s)
							if _, ess := scheme.(ESS); ess {
								if !math.IsInf(lb, -1) {
									t.Fatalf("seed %d %s ESS: bound %v, want -Inf", seed, kind, lb)
								}
								continue
							}
							if lb > sh {
								t.Fatalf("seed %d %s: bound %v exceeds share %v (device %d slot %d)", seed, kind, lb, sh, i, s)
							}
						}
					}
				}
			}
		}
	}
}
