package corpus

// GenerateRef exports the reference generator (ref_test.go) to the external
// test package, which pins Generate to it.
var GenerateRef = generateRef
