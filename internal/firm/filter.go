package firm

import "tradenet/internal/sim"

// FilterPlacement captures the §3 arithmetic for where to filter: given a
// feed of `rate` messages/s of which fraction `want` is useful, a consumer
// that filters in-process spends discardCost on every unwanted message plus
// processCost on wanted ones; with an upstream filter it spends only
// processCost on wanted ones, while the middlebox spends discardCost once
// for all `consumers`.
type FilterPlacement struct {
	Rate        float64 // messages/s on the raw feed
	Want        float64 // fraction useful to each consumer
	Consumers   int
	DiscardCost sim.Duration // per-message cost to inspect-and-drop
	ProcessCost sim.Duration // per-message cost to actually process
}

// InProcessCoresUsed returns the total CPU cores consumed when every
// consumer filters for itself.
func (fp FilterPlacement) InProcessCoresUsed() float64 {
	perConsumer := fp.Rate * ((1-fp.Want)*fp.DiscardCost.Seconds() + fp.Want*fp.ProcessCost.Seconds())
	return perConsumer * float64(fp.Consumers)
}

// MiddleboxCoresUsed returns the total CPU cores consumed with one upstream
// filter: the box inspects everything once, consumers process only wanted
// traffic.
func (fp FilterPlacement) MiddleboxCoresUsed() float64 {
	box := fp.Rate * fp.DiscardCost.Seconds()
	consumers := fp.Rate * fp.Want * fp.ProcessCost.Seconds() * float64(fp.Consumers)
	return box + consumers
}
