// Per-layer probes: each drives one layer's public functions alone, with a
// workload's node count and operation mix, and returns host ns per operation.
#ifndef FRAGVISOR_PERFBENCH_PROBES_H_
#define FRAGVISOR_PERFBENCH_PROBES_H_

#include <cstdint>

#include "perfbench/spans.h"

namespace fvbench {

struct Probe {
  double ns_per_op = 0;
  uint64_t ops = 0;  // the count base of ns_per_op
};

// EventLoop::ScheduleAt + dispatch with `pending` events queued (hold model).
Probe ProbeHeap(int pending, uint64_t seed);

// One near-empty window of ParallelEventLoop::Run over `partitions`
// partitions: a token hops partition to partition, one event per window.
Probe ProbeWindow(int partitions, int workers);

// Fabric::Send plus its delivery on a `nodes`-node mesh (serial EventLoop).
Probe ProbeSend(int nodes, uint64_t seed);

// RpcLayer::Call request plus its reply Call on a `nodes`-node mesh.
Probe ProbeRpcCall(int nodes, uint64_t seed);

// DsmEngine::Access on 4 nodes with 30% writes: a miss, run until the access
// retires, and a hit.
struct DsmProbe {
  Probe fault;
  Probe hit;
};
DsmProbe ProbeDsm(uint64_t seed);

// PlacementPolicy::Place (fragbff) on a 256-node capacity view.
Probe ProbePlace(uint64_t seed);

}  // namespace fvbench

#endif  // FRAGVISOR_PERFBENCH_PROBES_H_
