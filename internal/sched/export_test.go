package sched

// The internal test helpers the external sched_test package shares.
var (
	Perception  = perception
	MixedMesh   = mixedMesh
	SimbaMesh   = simbaMesh
	WithNoP     = withNoP
	FuzzPackage = fuzzPackage
)
