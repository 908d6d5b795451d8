// Package fixture exercises the sharedstate analyzer: package-level writes
// from run-reachable code fire (directly, through callees, through
// element/field access, and through pointer-receiver method calls);
// locals, reads, and unreachable writers stay silent.
package fixture

import "sync"

// counter is package-level mutable state.
var counter int

// table is package-level mutable state reached through indexing.
var table = map[string]int{}

// config is read-only at run time: reads of it must not fire.
var config = 42

// pool is mutated through its pointer-receiver methods.
var pool sync.Pool

// ptrVar already holds a pointer: method calls through it are reads of the
// var (pointee aliasing is out of scope).
var ptrVar = &sync.Pool{}

// RunScenario is the taint root.
func RunScenario(n int) int {
	counter++        // want `write to package-level var fixture.counter`
	counter = n      // want `write to package-level var fixture.counter`
	table["k"] = n   // want `write to package-level var fixture.table`
	p := &counter    // want `address of package-level var fixture.counter`
	_ = pool.Get()   // want `pointer-receiver call pool.Get on package-level var fixture.pool in run-reachable RunScenario;`
	_ = ptrVar.Get() // pointer-typed var: a read, not flagged
	helper(n)
	local(n)
	return config + *p // read of config: not flagged
}

// helper is reachable from RunScenario, so its write fires too.
func helper(n int) {
	counter += n // want `write to package-level var fixture.counter`
}

// local mutates only locals and parameters: silent.
func local(n int) int {
	m := map[string]int{}
	m["k"] = n
	n++
	x := n
	x += 2
	return x
}

// unreachable writes package state but no Run* can reach it: silent.
func unreachable() {
	counter = 99
	pool.Put(nil)
}

// experiment is shaped like core's faultExperiment: the code of a run is a
// closure in a package-level var's initializer.
type experiment struct {
	run func(seed int64) int
}

// tally is package-level mutable state the closure below writes.
var tally int

// spineFailover's closure runs whenever RunExperiment reads the var, so its
// write fires, and so does the write in the function it calls.
var spineFailover = &experiment{run: func(seed int64) int {
	tally++ // want `write to package-level var fixture.tally from run-reachable spineFailover`
	return closureCallee(seed)
}}

// closureCallee is reached only from the closure in spineFailover.
func closureCallee(seed int64) int {
	tally += int(seed) // want `write to package-level var fixture.tally from run-reachable closureCallee`
	return tally
}

// idleTable's closure writes shared state, but no run-reachable code
// mentions the var: silent.
var idleTable = &experiment{run: func(int64) int {
	tally = 0
	return tally
}}

// RunExperiment is the taint root for the experiment table.
func RunExperiment() int { return spineFailover.run(1) }
