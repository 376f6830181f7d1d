package core

import "sort"

// WarmStart carries CCSGA equilibria across related solves. Each solve
// records its outcome; Seed then builds the starting assignment for the
// next (possibly perturbed) instance by mapping every device the
// carrier remembers — matched by device ID — onto the charger it settled
// at last time, while unknown devices start standalone exactly like the
// cold path. Coalition-formation dynamics started near an equilibrium
// converge in far fewer passes than from the noncooperative assignment,
// which is the entire point: across a stream of related rounds the
// equilibrium survives and only the perturbation is re-solved.
//
// A WarmStart is not safe for concurrent use; guard it externally when
// solves overlap.
type WarmStart struct {
	charger map[string]int // device ID → charger index at last equilibrium
}

// NewWarmStart returns an empty carrier.
func NewWarmStart() *WarmStart {
	return &WarmStart{charger: make(map[string]int)}
}

// Len reports how many devices the carrier remembers.
func (w *WarmStart) Len() int { return len(w.charger) }

// set records one device's charger directly. The incremental repair path
// uses it to keep the carrier current in O(seat changes) per solve — the
// resulting map is identical to a full Record of the repaired schedule,
// because every unchanged device already carries its (unchanged) charger
// from the priming Record.
func (w *WarmStart) set(id string, charger int) {
	if w.charger == nil {
		w.charger = make(map[string]int)
	}
	w.charger[id] = charger
}

// Record stores the schedule's device→charger choices keyed by device ID,
// overwriting earlier entries for returning devices. Devices absent from
// the schedule keep their previous entry: a device that sat out a round
// still warm-starts from its last known charger when it returns.
func (w *WarmStart) Record(in *Instance, s *Schedule) {
	if w.charger == nil {
		w.charger = make(map[string]int)
	}
	for _, c := range s.Coalitions {
		for _, i := range c.Members {
			w.charger[in.Devices[i].ID] = c.Charger
		}
	}
}

// Seed builds a validated starting assignment (slot indices follow
// SessionSlots) for cm: remembered devices are seeded at their previous
// charger, everyone else at its standalone charger. Under session
// capacities (or mobile-charger travel budgets) devices are packed
// largest-demand first into the target charger's slots, falling back to
// the cheapest feasible slot anywhere when the target is full (seatSlot).
// It returns an error only when some device fits no slot at all — the
// "capacities too tight" condition.
func (w *WarmStart) Seed(cm *CostModel) ([]int, error) {
	chargerOf, firstSlot := SessionSlots(cm)
	return w.seed(cm, chargerOf, firstSlot)
}

// seed is Seed over a slot layout the caller already holds. A nil
// carrier remembers nobody, so it yields the cold start: every device at
// its standalone charger, packed when capacities or budgets bind.
func (w *WarmStart) seed(cm *CostModel, chargerOf, firstSlot []int) ([]int, error) {
	in := cm.Instance()
	init := make([]int, cm.NumDevices())
	target := func(i int) int {
		if w != nil {
			if j, ok := w.charger[in.Devices[i].ID]; ok && j >= 0 && j < len(firstSlot) {
				return j
			}
		}
		_, j := cm.StandaloneCost(i)
		return j
	}
	if !cm.HasCapacity() && !cm.HasTravelBudget() {
		for i := range init {
			init[i] = firstSlot[target(i)]
		}
		return init, nil
	}
	order := make([]int, cm.NumDevices())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return in.Devices[order[a]].Demand > in.Devices[order[b]].Demand
	})
	remaining := make([]float64, len(chargerOf))
	for s, j := range chargerOf {
		remaining[s] = in.Chargers[j].Capacity // 0 = unlimited
	}
	fitter := newBudgetFitter(cm, chargerOf)
	for _, i := range order {
		s := seatSlot(cm, chargerOf, firstSlot, i, target(i), func(s int) bool {
			ch := &in.Chargers[chargerOf[s]]
			if ch.Capacity > 0 && in.Devices[i].Demand/ch.Efficiency > remaining[s]*(1+1e-12) {
				return false
			}
			return fitter.fits(i, s)
		})
		if s < 0 {
			return nil, &seedError{id: in.Devices[i].ID}
		}
		init[i] = s
		fitter.take(i, s)
		if ch := &in.Chargers[chargerOf[s]]; ch.Capacity > 0 {
			remaining[s] -= in.Devices[i].Demand / ch.Efficiency
		}
	}
	return init, nil
}

// seatSlot is the one-device seating rule shared by the seed packer and
// the repair path's newcomer seating: the first slot of charger target
// that room accepts, else the slot room accepts with the cheapest
// singleton session (lowest index on ties). It returns -1 when room
// accepts no slot.
func seatSlot(cm *CostModel, chargerOf, firstSlot []int, i, target int, room func(s int) bool) int {
	for s := firstSlot[target]; s < len(chargerOf) && chargerOf[s] == target; s++ {
		if room(s) {
			return s
		}
	}
	best, bestCost := -1, 0.0
	for s, j := range chargerOf {
		if !room(s) {
			continue
		}
		if c := cm.SessionCost([]int{i}, j); best < 0 || c < bestCost {
			best, bestCost = s, c
		}
	}
	return best
}

// seedError reports a device that fits no session slot.
type seedError struct{ id string }

func (e *seedError) Error() string {
	return "device " + e.id + " fits no session slot: capacities or travel budgets too tight"
}
