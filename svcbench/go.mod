// The benchmark is a module of its own so that the repository's build and
// tests do not compile it; the cwcflow/ prefix lets it import the internal
// packages whose public functions the layer table times.
module cwcflow/svcbench

go 1.24.0

require cwcflow v0.0.0

replace cwcflow => ../
