package core

// Scheduler is the common interface the lifetime simulator, the testbed
// and the experiment harness use to run any of the four algorithms
// interchangeably.
type Scheduler interface {
	// Name returns the algorithm's table label (NONCOOP, CCSA, CCSGA, OPT).
	Name() string
	// Schedule solves the instance behind cm.
	Schedule(cm *CostModel) (*Schedule, error)
}

// NoncoopScheduler wraps Noncooperative.
type NoncoopScheduler struct{}

var _ Scheduler = NoncoopScheduler{}

// Name implements Scheduler.
func (NoncoopScheduler) Name() string { return "NONCOOP" }

// Schedule implements Scheduler.
func (NoncoopScheduler) Schedule(cm *CostModel) (*Schedule, error) {
	return Noncooperative(cm), nil
}

// CCSAScheduler wraps CCSA.
type CCSAScheduler struct {
	Opts CCSAOptions
}

var _ Scheduler = CCSAScheduler{}

// Name implements Scheduler.
func (CCSAScheduler) Name() string { return "CCSA" }

// Schedule implements Scheduler.
func (s CCSAScheduler) Schedule(cm *CostModel) (*Schedule, error) {
	res, err := CCSA(cm, s.Opts)
	if err != nil {
		return nil, err
	}
	return res.Schedule, nil
}

// CCSGAScheduler wraps CCSGA. Beyond the one-shot Schedule it is the
// stateful CCSGA engine: ScheduleWarm carries equilibria across related
// solves through a WarmStart, and ScheduleRepair additionally repairs a
// primed equilibrium incrementally through a RepairState.
type CCSGAScheduler struct {
	Opts CCSGAOptions
}

var _ Scheduler = CCSGAScheduler{}

// Name implements Scheduler.
func (CCSGAScheduler) Name() string { return "CCSGA" }

// Schedule implements Scheduler.
func (s CCSGAScheduler) Schedule(cm *CostModel) (*Schedule, error) {
	res, err := CCSGA(cm, s.Opts)
	if err != nil {
		return nil, err
	}
	return res.Schedule, nil
}

// ScheduleWarm solves like Schedule, returning full solver diagnostics,
// and seeds the dynamics from ws when it is non-nil (recording the new
// equilibrium back into it). A nil ws is exactly the cold path. It is the
// reference the incremental repair path is tested against.
func (s CCSGAScheduler) ScheduleWarm(cm *CostModel, ws *WarmStart) (*CCSGAResult, error) {
	res, _, _, err := ccsgaSolve(cm, s.Opts, ws, nil)
	return res, err
}

// ScheduleRepair solves like ScheduleWarm but routes through rs: the
// first solve (or any solve repair cannot handle — see RepairState) runs
// the full warm solve and primes rs; subsequent solves repair the primed
// equilibrium over the dirty-slot frontier. A nil rs is exactly
// ScheduleWarm.
func (s CCSGAScheduler) ScheduleRepair(cm *CostModel, ws *WarmStart, rs *RepairState) (*CCSGAResult, error) {
	if rs == nil {
		return s.ScheduleWarm(cm, ws)
	}
	return rs.solve(cm, s.Opts, ws)
}

// OptimalScheduler wraps Optimal; it fails on instances larger than
// MaxOptimalDevices.
type OptimalScheduler struct{}

var _ Scheduler = OptimalScheduler{}

// Name implements Scheduler.
func (OptimalScheduler) Name() string { return "OPT" }

// Schedule implements Scheduler.
func (OptimalScheduler) Schedule(cm *CostModel) (*Schedule, error) {
	return Optimal(cm)
}
