package barra

// TaintAnalysis exposes the replay engine's taint analysis to the
// external tests, which build the library's kernels.
var TaintAnalysis = taintAnalysis
