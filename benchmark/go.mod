// The benchmark is a module of its own so that it builds from this
// directory alone (plus the program under test, reached through the
// replace below) and never rides along with the repository's `./...`.
// The module path keeps the `repro/` prefix on purpose: that is what lets
// it import `repro/internal/...`.
module repro/benchmark

go 1.22

require repro v0.0.0

replace repro => ../
