package firm

import "tradenet/internal/feed"

// unitTable maps a feed unit number to its reassembler. Units are small
// dense integers (partition indices), so the table is a slice: the
// per-datagram lookup is an index, not a hash.
type unitTable []*feed.Reassembler

// get returns the reassembler for unit, or nil if none is set.
func (t unitTable) get(unit uint8) *feed.Reassembler {
	if int(unit) < len(t) {
		return t[unit]
	}
	return nil
}

// set installs r for unit, growing the table to reach it.
func (t *unitTable) set(unit uint8, r *feed.Reassembler) {
	for int(unit) >= len(*t) {
		*t = append(*t, nil)
	}
	(*t)[unit] = r
}
