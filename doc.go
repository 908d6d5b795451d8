// Package tradenet reproduces "Network Design Considerations for Trading
// Systems" (Myers, Nigito, Foster — HotNets '24) as a discrete-event
// simulation study: the workload characterization of §3 (Table 1,
// Figure 2), and the three candidate network designs of §4 (commodity
// leaf-spine, latency-equalized cloud, Layer-1 switch fabrics), built from
// real wire-format codecs and picosecond-resolution network models.
//
// The implementation lives under internal/; runnable entry points are
// cmd/tradenet (experiment harness), cmd/replay, cmd/pcapdump, and the
// programs in examples/. `tradenet -experiment <id>` regenerates every
// table and figure; see DESIGN.md for the experiment index and
// EXPERIMENTS.md for paper-versus-measured results.
package tradenet
