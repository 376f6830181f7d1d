package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// RepairState persists a converged CCSGA equilibrium — the charger game
// with its per-slot aggregates plus the device→slot assignment and each
// device's current cost share — across the delta ops of a streaming
// workload, so the next solve can re-run switch dynamics on the affected
// frontier only instead of sweeping every device against every slot.
//
// The state attaches to a CostModel as its mutation listener: AddDevice,
// RemoveDevices, UpdateDevice and SetTariff report which session slots
// they dirtied (the slots whose aggregates changed). ScheduleRepair then
// repairs from the previous equilibrium under the clean-slot invariant:
// a slot no delta touched has the same aggregates as at the last
// verified Nash point, so it cannot have become newly attractive to a
// device whose own parameters did not change. Members of dirty slots get
// a full best-response (their own share moved); every other device is
// tested against the dirty slots only — O(|dirty|) per device, using its
// cached share as the bar. Accepted switches dirty their source and
// target slots and the rounds drain in device-index order until a
// zero-move round, which is itself the Nash verification sweep.
//
// When incremental repair cannot run — the frontier exceeds
// repairMaxFrontier of the population, the session-slot
// layout changed under capacities, a dirty slot is over capacity, an ESS
// tariff swap moved every standalone cost, or the dynamics hit the round
// cap — the solve falls back to a full warm solve and re-primes
// (CCSGAResult.FallbackReason names the reason).
//
// A RepairState is not safe for concurrent use, and at most one may be
// attached to a CostModel at a time (a second Attach replaces the
// first). The zero value is not usable; call NewRepairState.
type RepairState struct {
	cm   *CostModel
	game *chargerGame

	assign []int     // device -> slot; -1 = added but not yet seated
	share  []float64 // device -> share at its slot, exact at convergence

	dirty    map[int]struct{} // slots whose aggregates changed since convergence
	unseeded int              // count of assign[i] == -1 entries

	// joinShare memoizes hypothetical-join shares across repairs:
	// joinShare[i*memoSlots+s] holds g.Share(i, s) computed while device i
	// was not in slot s, valid while its stamp equals slotEpoch[s]. A
	// slot's epoch bumps whenever its aggregates can have changed (a delta
	// dirtied it, or a switch moved a device in or out — membership
	// changes of i itself included, so a fresh stamp also certifies i is
	// still outside s), and a device's row resets when its own parameters
	// change, so a stamped entry is bit-identical to recomputation. This
	// is what makes a frontier member's full best-response cheap: only the
	// dirty slots' shares are recomputed, the clean columns are reads.
	// The n×slots tables are allocated by the state's first repair (nil
	// until then): a fresh memo is all-invalid anyway, and a state that
	// only ever falls back never pays for one.
	joinShare []float64
	joinStamp []uint32
	slotEpoch []uint32 // starts at 1; stamp 0 is never valid
	memoSlots int

	// updated collects the devices whose seat changed during the current
	// repair (seated newcomers plus accepted switches), so solve can patch
	// the WarmStart carrier in O(changes) instead of re-recording all n.
	updated     []int
	updatedMark []bool

	primed bool
	// baselineFilled defers the rs.share baseline (one Share eval per
	// device) from prime to the first actual repair: a clean slot's
	// aggregates are untouched since convergence, so the lazy values are
	// bit-identical to eager ones, and fallback-heavy workloads that
	// never repair skip the sweep entirely.
	baselineFilled bool
	// fullReason forces the next solve down the full path (e.g. an ESS
	// tariff swap); layoutSuspect forces a session-slot layout recheck
	// (capacitated slot counts depend on total demand).
	fullReason    string
	layoutSuspect bool

	// enumReverse flips candidate-slot enumeration order; a test hook
	// proving the argmin tie-break makes results enumeration-order-free.
	enumReverse bool
	// maxFrontier is the frontier cap as a fraction of the population,
	// repairMaxFrontier unless a test moves it to force or avoid the
	// fallback.
	maxFrontier float64
}

// repairMaxFrontier caps how much of the population a repair may fully
// re-evaluate before it falls back to the full warm solve: past half the
// devices, the frontier sweep costs about as much as the full dynamics.
const repairMaxFrontier = 0.5

// NewRepairState returns an empty, unprimed state. The first
// ScheduleRepair through it runs a full warm solve (byte-identical to
// ScheduleWarm) and primes the state; later solves repair incrementally.
func NewRepairState() *RepairState {
	return &RepairState{dirty: make(map[int]struct{}), maxFrontier: repairMaxFrontier}
}

// Primed reports whether the state holds a converged equilibrium to
// repair from.
func (rs *RepairState) Primed() bool { return rs.primed }

// fallbackError aborts an incremental repair toward the full path.
type fallbackError struct{ reason string }

func (e *fallbackError) Error() string { return "ccsga repair fallback: " + e.reason }

// --- mutationListener (fires after each successful CostModel delta op) ---

func (rs *RepairState) deviceAdded() {
	if !rs.primed {
		return
	}
	rs.assign = append(rs.assign, -1)
	rs.share = append(rs.share, 0)
	rs.game.cur = append(rs.game.cur, -1)
	rs.game.sigma = append(rs.game.sigma, 0) // set when the device is seated
	if rs.joinShare != nil {
		rs.joinShare = append(rs.joinShare, make([]float64, rs.memoSlots)...)
		rs.joinStamp = append(rs.joinStamp, make([]uint32, rs.memoSlots)...)
	}
	rs.unseeded++
	if rs.cm.HasCapacity() {
		rs.layoutSuspect = true // total demand grew; slot counts may change
	}
}

func (rs *RepairState) devicesRemoved(idx []int) {
	if !rs.primed {
		return
	}
	for _, i := range idx {
		if s := rs.assign[i]; s >= 0 {
			rs.markDirty(s) // the slot's aggregates are rebuilt at solve time
		} else {
			rs.unseeded--
		}
	}
	rs.assign = removeRows(rs.assign, idx, 1)
	rs.share = removeRows(rs.share, idx, 1)
	rs.game.cur = removeRows(rs.game.cur, idx, 1)
	rs.game.sigma = removeRows(rs.game.sigma, idx, 1)
	if rs.joinShare != nil {
		rs.joinShare = removeRows(rs.joinShare, idx, rs.memoSlots)
		rs.joinStamp = removeRows(rs.joinStamp, idx, rs.memoSlots)
	}
	if rs.cm.HasCapacity() {
		rs.layoutSuspect = true
	}
}

func (rs *RepairState) deviceUpdated(i int) {
	if !rs.primed {
		return
	}
	rs.game.sigma[i], _ = rs.cm.StandaloneCost(i)
	if rs.joinStamp != nil {
		clear(rs.joinStamp[i*rs.memoSlots : (i+1)*rs.memoSlots]) // the device's own parameters entered every cached share
	}
	if s := rs.assign[i]; s >= 0 {
		// The device's own contributions changed, so its slot is dirty —
		// which also makes the device itself a frontier member with a
		// full best-response (its share against every slot moved, not
		// just against the dirty ones).
		rs.markDirty(s)
	}
	if rs.cm.HasCapacity() {
		rs.layoutSuspect = true
	}
}

func (rs *RepairState) tariffSet(j int) {
	if !rs.primed {
		return
	}
	if !rs.game.pds {
		// Under ESS every device's standalone cost enters every share, so
		// a tariff swap moves the whole landscape: nothing is clean.
		rs.fullReason = "ESS tariff swap invalidates every cached share"
		return
	}
	// Under PDS a tariff only prices its own charger's sessions; moving
	// costs and the other chargers' slots are untouched. (The sigma memo
	// goes stale, but PDS shares never read it.)
	g := rs.game
	for s := g.firstSlot[j]; s < len(g.chargerOf) && g.chargerOf[s] == j; s++ {
		rs.markDirty(s)
	}
}

func (rs *RepairState) markDirty(s int) {
	rs.dirty[s] = struct{}{}
}

// markUpdated notes a device whose seat changed during the current
// repair. The mark array is reset at the top of each repair.
func (rs *RepairState) markUpdated(i int) {
	if !rs.updatedMark[i] {
		rs.updatedMark[i] = true
		rs.updated = append(rs.updated, i)
	}
}

// --- solve path ---

// solve is ScheduleRepair's engine: attach to cm if needed, repair if
// primed and possible, otherwise run the full warm solve and re-prime
// (reason is non-empty when that is a fallback from a primed state).
func (rs *RepairState) solve(cm *CostModel, opts CCSGAOptions, ws *WarmStart) (*CCSGAResult, error) {
	if cm == nil {
		return nil, errors.New("ccsga repair: nil cost model")
	}
	if rs.cm != cm {
		if rs.cm != nil {
			rs.cm.setListener(nil)
		}
		rs.invalidate()
		rs.cm = cm
		cm.setListener(rs)
	}
	reason := ""
	switch {
	case !rs.primed:
		// First solve through this state: plain full path, not a fallback.
	case cm.HasMobility():
		// Tour-aware shares re-plan routes on every membership change;
		// the dirty-slot frontier cannot bound which slots a re-planned
		// tour touches, so mobile instances always take the full warm
		// path.
		reason = "mobile chargers (tour-aware shares)"
	case rs.fullReason != "":
		reason = rs.fullReason
	case rs.layoutSuspect && !rs.layoutUnchanged():
		reason = "session-slot layout changed"
	default:
		rs.layoutSuspect = false
		res, err := rs.repair(opts)
		if err == nil {
			if ws != nil {
				// Patch only the seats the repair changed; the carrier map
				// ends up identical to a full Record of res.Schedule.
				in := cm.Instance()
				for _, i := range rs.updated {
					ws.set(in.Devices[i].ID, rs.game.chargerOf[rs.assign[i]])
				}
			}
			return res, nil
		}
		var fb *fallbackError
		if !errors.As(err, &fb) {
			rs.invalidate()
			return nil, err
		}
		reason = fb.reason
	}
	res, game, assign, err := ccsgaSolve(cm, opts, ws, nil)
	if err != nil {
		rs.invalidate()
		return nil, err
	}
	rs.prime(game, assign)
	res.FallbackReason = reason
	return res, nil
}

// prime adopts a converged game and assignment as the repair baseline.
// Aggregates are rebuilt from scratch (one ascending join sweep) so the
// floating-point baseline is the same regardless of the switch history
// that reached the equilibrium.
func (rs *RepairState) prime(g *chargerGame, assign []int) {
	rs.game = g
	g.reset(assign)
	rs.assign = append(rs.assign[:0], assign...)
	if cap(rs.share) < len(assign) {
		rs.share = make([]float64, len(assign))
	}
	rs.share = rs.share[:len(assign)]
	rs.baselineFilled = false // per-device bars fill at the first repair
	// Fresh memo: all stamps invalid (0 < every epoch), filled lazily as
	// repairs evaluate candidates. A state that already has memo tables
	// re-zeroes their stamps here, inside the full solve this prime
	// follows; a state that has never repaired gets them from its first
	// repair.
	rs.memoSlots = len(g.chargerOf)
	if rs.joinShare != nil {
		size := len(assign) * rs.memoSlots
		rs.joinShare = slices.Grow(rs.joinShare[:0], size)[:size]
		rs.joinStamp = slices.Grow(rs.joinStamp[:0], size)[:size]
		clear(rs.joinStamp)
	}
	rs.slotEpoch = make([]uint32, rs.memoSlots)
	for s := range rs.slotEpoch {
		rs.slotEpoch[s] = 1
	}
	for s := range rs.dirty {
		delete(rs.dirty, s)
	}
	rs.unseeded = 0
	rs.primed = true
	rs.fullReason = ""
	rs.layoutSuspect = false
}

// invalidate drops the primed equilibrium; the next solve is full.
func (rs *RepairState) invalidate() {
	rs.game = nil
	rs.assign = rs.assign[:0]
	rs.share = rs.share[:0]
	rs.joinShare = nil
	rs.joinStamp = nil
	rs.slotEpoch = nil
	rs.memoSlots = 0
	for s := range rs.dirty {
		delete(rs.dirty, s)
	}
	rs.unseeded = 0
	rs.primed = false
	rs.fullReason = ""
	rs.layoutSuspect = false
}

// layoutUnchanged reports whether the session-slot layout for the
// current instance still matches the primed game's (capacitated slot
// counts follow total demand, so membership and demand deltas can change
// it; a changed layout makes every cached slot index meaningless).
func (rs *RepairState) layoutUnchanged() bool {
	chargerOf, _ := SessionSlots(rs.cm)
	if len(chargerOf) != len(rs.game.chargerOf) {
		return false
	}
	for s, j := range chargerOf {
		if rs.game.chargerOf[s] != j {
			return false
		}
	}
	return true
}

// seatNew places devices added since the last convergence by the seed
// packer's rule (seatSlot) at their standalone charger, judging room by
// the live slot aggregates, and dirties the slots they land in.
func (rs *RepairState) seatNew() error {
	g, cm := rs.game, rs.cm
	in := g.in
	for i := range rs.assign {
		if rs.assign[i] != -1 {
			continue
		}
		sigma, target := cm.StandaloneCost(i)
		g.sigma[i] = sigma
		seat := seatSlot(cm, g.chargerOf, g.firstSlot, i, target, func(s int) bool {
			ch := &in.Chargers[g.chargerOf[s]]
			return ch.Capacity == 0 || g.purchased[s]+in.Devices[i].Demand/ch.Efficiency <= ch.Capacity*(1+1e-12)
		})
		if seat < 0 {
			return &fallbackError{fmt.Sprintf("device %s fits no session slot", in.Devices[i].ID)}
		}
		g.join(i, seat)
		g.cur[i] = seat
		rs.assign[i] = seat
		rs.share[i] = 0 // dirty-slot member; refreshed in the first round
		rs.markDirty(seat)
		rs.markUpdated(i)
		rs.unseeded--
	}
	return nil
}

// rebuildDirty recomputes every dirty slot's aggregates exactly from the
// current assignment and cost model. Incremental add/subtract surgery
// would drift a few ulps per delta; rebuilding the touched slots each
// solve pins the drift to one repair's worth of moves, and the clean
// slots keep their prime-time-exact sums untouched.
func (rs *RepairState) rebuildDirty(isDirty []bool) {
	g := rs.game
	for s := range rs.dirty {
		g.count[s] = 0
		g.purchased[s] = 0
		g.moveSum[s] = 0
		g.sigmaSum[s] = 0
	}
	for i, s := range rs.assign {
		if isDirty[s] {
			g.addAggregates(i, s)
		}
	}
}

// repair runs frontier-restricted switch dynamics from the primed
// equilibrium. Rounds sweep the devices in ascending index order:
// members of dirty slots best-respond against every slot, everyone else
// is tested against the current dirty set only, with each accepted
// switch dirtying its source and target slots for the next round. The
// candidate choice is argmin (share, slot index), accepted only on a
// strict > epsilon improvement, so the outcome does not depend on the
// enumeration order of the dirty set. The terminating zero-move round is
// the Nash verification: combined with the clean-slot invariant it
// re-establishes IsNash over the full strategy space.
func (rs *RepairState) repair(opts CCSGAOptions) (*CCSGAResult, error) {
	g, cm := rs.game, rs.cm
	n := cm.NumDevices()
	if n == 0 {
		return nil, errors.New("ccsga repair: instance has no devices")
	}
	eps := opts.Epsilon
	if eps == 0 {
		eps = 1e-9
	}
	maxRounds := opts.MaxPasses
	if maxRounds == 0 {
		maxRounds = 10*n + 100
	}
	maxFrontier := int(rs.maxFrontier * float64(n))
	if maxFrontier < 1 {
		maxFrontier = 1
	}

	rs.updated = rs.updated[:0]
	if cap(rs.updatedMark) < n {
		rs.updatedMark = make([]bool, n)
	} else {
		rs.updatedMark = rs.updatedMark[:n]
		for i := range rs.updatedMark {
			rs.updatedMark[i] = false
		}
	}
	if rs.unseeded > 0 {
		if err := rs.seatNew(); err != nil {
			return nil, err
		}
	}
	numSlots := len(g.chargerOf)
	isDirty := make([]bool, numSlots)
	dirtyList := make([]int, 0, len(rs.dirty))
	for s := range rs.dirty {
		isDirty[s] = true
		dirtyList = append(dirtyList, s)
	}
	sort.Ints(dirtyList)
	for _, s := range dirtyList {
		rs.slotEpoch[s]++ // deltas changed these slots' aggregates
	}
	rs.rebuildDirty(isDirty)
	base := 0 // dirty-slot membership: a lower bound on the frontier
	for _, s := range dirtyList {
		ch := &g.in.Chargers[g.chargerOf[s]]
		if ch.Capacity > 0 && g.purchased[s] > ch.Capacity*(1+1e-12) {
			return nil, &fallbackError{fmt.Sprintf("slot %d over charger %s capacity after deltas", s, ch.ID)}
		}
		base += g.count[s]
	}
	if base > maxFrontier {
		// Every dirty-slot member is a frontier device before a single
		// switch runs, so the cap is doomed — fall back without paying a
		// wasted partial sweep (batch deltas on small instances hit this).
		return nil, &fallbackError{fmt.Sprintf("repair frontier %d devices exceeds cap %d", base, maxFrontier)}
	}
	if rs.joinShare == nil {
		rs.joinShare = make([]float64, n*rs.memoSlots)
		rs.joinStamp = make([]uint32, n*rs.memoSlots)
	}
	if !rs.baselineFilled {
		// Clean slots are exactly as they were at convergence, so this
		// fills the same bars prime would have; dirty-slot members refresh
		// theirs as frontier devices in the first round.
		for i, s := range rs.assign {
			if !isDirty[s] {
				rs.share[i] = g.Share(i, s)
			}
		}
		rs.baselineFilled = true
	}

	inFrontier := make([]bool, n)
	nextDirty := make([]bool, numSlots)
	frontier, switches, rounds := 0, 0, 0
	for len(dirtyList) > 0 {
		rounds++
		if rounds > maxRounds {
			return nil, &fallbackError{fmt.Sprintf("switch dynamics exceeded %d rounds", maxRounds)}
		}
		var next []int
		for i := 0; i < n; i++ {
			cur := rs.assign[i]
			full := isDirty[cur]
			var curShare float64
			if full {
				if !inFrontier[i] {
					inFrontier[i] = true
					if frontier++; frontier > maxFrontier {
						return nil, &fallbackError{fmt.Sprintf("repair frontier %d devices exceeds cap %d", frontier, maxFrontier)}
					}
				}
				curShare = g.Share(i, cur)
			} else {
				curShare = rs.share[i]
			}
			candS, candShare := -1, 0.0
			consider := func(s int) {
				if s == cur {
					return
				}
				idx := i*rs.memoSlots + s
				if rs.joinStamp[idx] == rs.slotEpoch[s] {
					if !full {
						// Memo invariant: a still-stamped share was evaluated
						// against a bar no larger than this device's current
						// one (its share only drops by moving to something
						// strictly better, and only rises through a full
						// best-response that re-judged every slot), so it
						// cannot clear the strict improvement test now. Clean
						// devices skip it; frontier members keep it as an
						// argmin candidate because their bar just moved.
						return
					}
					sh := rs.joinShare[idx]
					if candS < 0 || sh < candShare || (sh == candShare && s < candS) {
						candS, candShare = s, sh
					}
					return
				}
				// A slot whose share lower bound (the moving cost under
				// PDS) beats neither the bar nor the candidate can skip the
				// tariff evaluation. (Safe for the tie-break: a skipped
				// slot's share strictly exceeds the candidate's, so it can
				// never be the argmin. Filtered slots stay unstamped — the
				// bound says nothing about their share against a future,
				// higher bar.)
				if lb := g.ShareLowerBound(i, s); lb >= curShare-eps || (candS >= 0 && lb > candShare) {
					return
				}
				sh := g.Share(i, s)
				rs.joinShare[idx] = sh
				rs.joinStamp[idx] = rs.slotEpoch[s]
				if candS < 0 || sh < candShare || (sh == candShare && s < candS) {
					candS, candShare = s, sh
				}
			}
			if full {
				if rs.enumReverse {
					for s := numSlots - 1; s >= 0; s-- {
						consider(s)
					}
				} else {
					for s := 0; s < numSlots; s++ {
						consider(s)
					}
				}
			} else if rs.enumReverse {
				for k := len(dirtyList) - 1; k >= 0; k-- {
					consider(dirtyList[k])
				}
			} else {
				for _, s := range dirtyList {
					consider(s)
				}
			}
			if candS >= 0 && candShare < curShare-eps {
				g.Move(i, cur, candS)
				rs.assign[i] = candS
				rs.slotEpoch[cur]++ // both slots' aggregates just changed
				rs.slotEpoch[candS]++
				// The hypothetical-join share is computed from the same
				// aggregate additions join just applied, so it is the
				// post-move share bit-for-bit.
				rs.share[i] = candShare
				rs.markUpdated(i)
				switches++
				for _, s := range [2]int{cur, candS} {
					if !nextDirty[s] {
						nextDirty[s] = true
						next = append(next, s)
					}
				}
			} else if full {
				rs.share[i] = curShare
			}
		}
		// isDirty holds exactly this round's flags: clear them and it
		// becomes the next round's all-false collector.
		for _, s := range dirtyList {
			isDirty[s] = false
		}
		sort.Ints(next)
		dirtyList = next
		isDirty, nextDirty = nextDirty, isDirty
	}
	for s := range rs.dirty {
		delete(rs.dirty, s)
	}
	return &CCSGAResult{
		Schedule:        g.schedule(rs.assign),
		Switches:        switches,
		Passes:          rounds,
		Converged:       true,
		NashStable:      true,
		Repaired:        true,
		FrontierDevices: frontier,
	}, nil
}
