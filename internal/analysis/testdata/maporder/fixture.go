// Package fixture exercises the maporder analyzer: ranging over a map in a
// function whose effects reach the event schedule.
package fixture

import (
	"sort"

	"tradenet/internal/sim"
)

func tick() {}

// Fanout schedules one event per member: map order leaks into the schedule.
func Fanout(s *sim.Scheduler, members map[int]sim.Time) {
	for _, t := range members { // want `range over a map in Fanout`
		s.At(t, tick)
	}
}

// FanoutSorted iterates collected, sorted keys — the sanctioned idiom; the
// collect-keys loop is exempt.
func FanoutSorted(s *sim.Scheduler, members map[int]sim.Time) {
	var ids []int
	for id := range members {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		s.At(members[id], tick)
	}
}

// Tally never reaches the schedule, so map order stays internal to the run.
func Tally(counts map[int]int) int {
	total := 0
	for _, n := range counts {
		total += n
	}
	return total
}

// deliver is the scheduling helper Notify reaches through one level of
// same-package transitivity.
func deliver(s *sim.Scheduler, t sim.Time) { s.At(t, tick) }

// Notify only calls a helper, but the helper schedules.
func Notify(s *sim.Scheduler, subs map[int]sim.Time) {
	for _, t := range subs { // want `range over a map in Notify`
		deliver(s, t)
	}
}

// Callbacks invokes func-typed values inside a run: in this codebase a
// callback is how frames and messages propagate, so the dynamic call is a
// sink.
func Callbacks(handlers map[int]func()) {
	for _, h := range handlers { // want `range over a map in Callbacks`
		h()
	}
}

// RunHandlers is a run entry point; it reaches Callbacks.
func RunHandlers(handlers map[int]func()) { Callbacks(handlers) }

// Walk calls a func-typed value inside a map range, but no run reaches it:
// like a linter's graph walk, it schedules nothing.
func Walk(graph map[int][]int, visit func(int)) {
	for n := range graph {
		visit(n)
	}
}
