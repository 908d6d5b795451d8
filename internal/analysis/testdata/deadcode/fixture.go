// Package fixture exercises the deadcode analyzer. What main, init, a
// package-level var initializer or a standard-library interface reaches is
// live; an unreferenced function and everything only it calls is
// reported; a one-return accessor is not; an allow on a live function is
// stale.
package main

import (
	"fmt"
	"sort"
)

// table is a var initializer: a root, so the closure's callee is live
// although no function mentions the table.
var table = map[string]func() int{
	"a": fromTable,
}

// fromTable is reached only from the var initializer above.
func fromTable() int { return helper() + 1 }

// helper is live through fromTable.
func helper() int { return 2 }

func init() { fmt.Println(initOnly()) }

// initOnly is called from init.
func initOnly() int { return 3 }

func main() {
	w := widgets{{n: 2}, {n: 1}}
	sort.Sort(w)
	fmt.Println(w[0])
}

// widget is printed and sorted: fmt and sort call its methods.
type widget struct{ n int }

// String is called by fmt through fmt.Stringer.
func (w widget) String() string { return fmt.Sprint(w.n) }

type widgets []widget

func (w widgets) Len() int           { return len(w) }
func (w widgets) Less(i, j int) bool { return w[i].n < w[j].n }
func (w widgets) Swap(i, j int)      { w[i], w[j] = w[j], w[i] }

// unreferenced is called by nothing.
func unreferenced() int { // want `unreferenced is reached by no main, init or package-level var initializer`
	return onlyFromDead() * 2
}

// onlyFromDead is called only by dead code, so it is dead too.
func onlyFromDead() int { // want `onlyFromDead is reached by no main`
	x := 4
	return x
}

// Size is an accessor: one return, no call but a conversion. Tests read
// state through such functions, so it is not reported.
func (w widget) Size() int64 { return int64(w.n) }

// Count is an accessor too: len is a builtin, not a call into code.
func (w widgets) Count() int { return len(w) }

// Twice calls a function in its one return, so it is no accessor.
func (w widget) Twice() int { return double(w.n) } // want `\(widget\).Twice is reached by no main`

// double is called only by dead code.
func double(n int) int { // want `double is reached by no main`
	n *= 2
	return n
}

// kept is unreached but allowed, with its future caller named.
//
//simlint:allow deadcode: the scheduler of the next release calls it
func kept() int {
	y := 5
	return y
}

// live is mentioned by a blank var's initializer, so its allow is stale.
//
//simlint:allow deadcode: nothing calls this // want `stale allow directive`
func live() int {
	z := 6
	return z
}

var _ = live
