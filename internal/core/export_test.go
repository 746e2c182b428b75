package core

// AddConvergenceNoFastFail runs AddConvergence with the rank-∞ fast-fail
// switched off: the run grinds through every batch the fast-fail would
// skip, so it is the oracle the fast-fail short-circuits are compared
// against.
func AddConvergenceNoFastFail(e Engine, opts Options) (*Result, error) {
	return addConvergence(e, opts, false)
}
