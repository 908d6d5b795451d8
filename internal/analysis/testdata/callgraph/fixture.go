// Package fixture exercises the call-graph builder: static dispatch,
// interface method-set resolution, method values passed as callbacks,
// mutual recursion, and the reachable-from-Run* taint. The companion test
// (callgraph_test.go) asserts reachability of the functions below, so this
// fixture carries no // want comments.
package fixture

// Handler is dispatched through an interface: the builder must resolve
// Handle to every declared type whose method set satisfies it.
type Handler interface {
	Handle(n int) int
}

// Doubler implements Handler with a value receiver.
type Doubler struct{ calls int }

// Handle doubles.
func (d Doubler) Handle(n int) int { return 2 * n }

// Accum implements Handler with a pointer receiver.
type Accum struct{ total int }

// Handle accumulates.
func (a *Accum) Handle(n int) int { a.total += n; return a.total }

// Renamed implements Handler with its parameter and result named
// differently from the interface's: only the types must match.
type Renamed struct{}

// Handle negates.
func (Renamed) Handle(x int) (out int) { return -x }

// Decoy has a Handle with a different signature: it must NOT be resolved
// as an implementation of Handler.
type Decoy struct{}

// Handle on Decoy takes a string, so Decoy does not satisfy Handler.
func (Decoy) Handle(s string) string { return s }

// dispatch calls through the interface.
func dispatch(h Handler, n int) int { return h.Handle(n) }

// ping and pong are mutually recursive: both must be reachable when
// either is.
func ping(n int) int {
	if n <= 0 {
		return 0
	}
	return pong(n - 1)
}

func pong(n int) int {
	if n <= 0 {
		return 1
	}
	return ping(n - 1)
}

// leaf is called statically from the run root.
func leaf() int { return 7 }

// viaValue is only ever referenced as a function value (a callback); the
// reference edge must make it reachable.
func viaValue() int { return 8 }

// invoke runs a callback.
func invoke(f func() int) int { return f() }

// orphan is declared but never referenced anywhere: it must stay
// unreachable.
func orphan() int { return 9 }

// orphanCallee is only called by orphan, so it is unreachable too.
func orphanCallee() int { return orphan() }

// Counter carries a method used only as a method value.
type Counter struct{ n int }

// Bump is passed as a bound method value from the run root.
func (c *Counter) Bump() int { c.n++; return c.n }

// registry is a package-level table of closures: its initializer's calls
// are the var's edges, and whoever mentions the var reaches them.
var registry = map[string]func() int{
	"leaf": func() int { return fromRegistry() },
}

// fromRegistry is called only inside registry's initializer.
func fromRegistry() int { return 10 }

// unusedTable is a table nothing mentions.
var unusedTable = []func() int{orphan}

// RunFixture is the run entry point the taint starts from.
func RunFixture() int {
	var c Counter
	total := leaf()
	total += invoke(viaValue)
	total += invoke(c.Bump)
	total += ping(3)
	var h Handler = &Accum{}
	total += dispatch(h, 2)
	total += dispatch(Doubler{}, 3)
	total += registry["leaf"]()
	return total
}
