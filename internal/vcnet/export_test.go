package vcnet

// WorkCounts is the engine's work counters (see work).
type WorkCounts = work

// Work returns the counters of the work the network has done so far.
func (n *Network) Work() WorkCounts { return n.work }
