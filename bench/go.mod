// The benchmark is a module of its own so that it builds from its own
// directory (go run -C bench .); the replace makes the repository at the
// parent directory the program under test.
module turnmodel/bench

go 1.22

require turnmodel v0.0.0

replace turnmodel => ../
