// The benchmark is a module of its own because the contract it is accepted
// under wants a compiled benchmark to carry its own build file in its own
// directory. It builds from nothing but the repository source: the import
// path sits under wormnet/, which is what lets it reach the simulator's
// internal packages through the replace below. The price is that go build
// ./... && go test ./... at the repository root do not cover it; run
// go vet ./... && go test ./... in this directory.
module wormnet/benchmark

go 1.22

require wormnet v0.0.0

replace wormnet => ../
