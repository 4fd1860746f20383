package experiments

// SetShards is kept for callers written when a universe could be split
// across several simulators. Every universe now runs on one simulator,
// so the only accepted value is 0; any other n panics.
func SetShards(n int) {
	if n != 0 {
		panic("experiments: sharded execution was removed; SetShards accepts only 0")
	}
}
