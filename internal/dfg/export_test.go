package dfg

// CutsReference exposes the string-set cut oracle to the external test
// package, which diffs it against Cuts on every CPA-RA round.
var CutsReference = cutsReference
