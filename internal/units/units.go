// Package units provides physical-unit helpers shared across the simulator:
// bandwidths, serialization delay, and propagation delay over fiber,
// microwave, and vacuum.
//
// These are the constants the paper's arithmetic leans on: a 1514-byte frame
// at 10 Gb/s serializes in ~1.2 µs, light in fiber covers tens of miles of
// metro distance in hundreds of microseconds, and microwave links beat fiber
// because air's refractive index is ~1.0003 versus fiber's ~1.47.
package units

import (
	"fmt"

	"tradenet/internal/sim"
)

// Bandwidth is a link rate in bits per second.
type Bandwidth int64

// Common link rates.
const (
	Kbps Bandwidth = 1_000
	Mbps Bandwidth = 1_000_000
	Gbps Bandwidth = 1_000_000_000

	// Rate10G is the standard exchange cross-connect rate (§2: "usually via
	// 10 Gbps Ethernet").
	Rate10G  = 10 * Gbps
	Rate25G  = 25 * Gbps
	Rate40G  = 40 * Gbps
	Rate100G = 100 * Gbps
)

// String formats the bandwidth with a binary-free SI unit.
func (b Bandwidth) String() string {
	switch {
	case b >= Gbps && b%Gbps == 0:
		return fmt.Sprintf("%dGbps", b/Gbps)
	case b >= Mbps && b%Mbps == 0:
		return fmt.Sprintf("%dMbps", b/Mbps)
	case b >= Kbps && b%Kbps == 0:
		return fmt.Sprintf("%dKbps", b/Kbps)
	default:
		return fmt.Sprintf("%dbps", int64(b))
	}
}

// SerializationDelay returns the time to clock bytes onto a link of rate b.
// The result is exact in picoseconds: bytes*8 bits at b bits/s is
// bytes*8*1e12/b picoseconds.
func SerializationDelay(bytes int, b Bandwidth) sim.Duration {
	if b <= 0 {
		panic("units: nonpositive bandwidth")
	}
	bits := int64(bytes) * 8
	return sim.Duration(bits * int64(sim.Second) / int64(b))
}

// Distance is a path length in meters.
type Distance float64

// Common distances.
const (
	Meter     Distance = 1
	Kilometer          = 1000 * Meter
	Mile               = 1609.344 * Meter
)

// Propagation media. Velocity factors are fractions of c in vacuum.
const (
	cVacuum = 299_792_458.0 // m/s

	// VelocityFiber is the velocity factor of light in standard single-mode
	// fiber (group index ~1.468).
	VelocityFiber = 1 / 1.468

	// VelocityMicrowave is the velocity factor of a line-of-sight microwave
	// link; air's refractive index is ~1.0003, effectively c. This is why
	// trading firms run microwave between colos despite rain fade (§2).
	VelocityMicrowave = 1 / 1.0003

	// VelocityCopper approximates twinax/DAC cable inside a cage.
	VelocityCopper = 0.66
)

// PropagationDelay returns the one-way latency for a signal covering
// distance dist in a medium with the given velocity factor.
func PropagationDelay(dist Distance, velocityFactor float64) sim.Duration {
	if velocityFactor <= 0 || velocityFactor > 1 {
		panic("units: velocity factor must be in (0, 1]")
	}
	seconds := float64(dist) / (cVacuum * velocityFactor)
	return sim.Duration(seconds * float64(sim.Second))
}

// FiberDelay returns one-way propagation latency over fiber of length dist.
func FiberDelay(dist Distance) sim.Duration {
	return PropagationDelay(dist, VelocityFiber)
}

// MicrowaveDelay returns one-way propagation latency over a line-of-sight
// microwave path of length dist.
func MicrowaveDelay(dist Distance) sim.Duration {
	return PropagationDelay(dist, VelocityMicrowave)
}
