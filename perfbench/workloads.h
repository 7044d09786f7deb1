// The benchmark's three workloads, each one whole simulation run driven
// through the simulator's public entry points:
//
//  * avm-omp          — a 4-node FragVisor aggregate VM running CG-, MG- and
//                       FT-OMP on the serial EventLoop (AggregateVm +
//                       OmpThreadStream, the run bench/harness RunOmp makes);
//  * storm64          — RunStorm, 64 nodes x 8 streams x 1000 accesses;
//  * cluster128-flash — RunMarketplace, 128 nodes x 4 slots, 400 VMs of the
//                       flash trace at 500 requests per vCPU, fragbff.
//
// Every run builds its system from scratch, so simulated caches start empty.
// BENCHMARK.json lists the last two; README.md says why avm-omp runs by hand.
#ifndef FRAGVISOR_PERFBENCH_WORKLOADS_H_
#define FRAGVISOR_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/spans.h"

namespace fvbench {

enum class Workload { kAvmOmp, kStorm64, kCluster128Flash };

// Parses a workload name; returns false for an unknown one.
bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

// Simulated nodes, which is also the parallel engine's partition count.
int WorkloadNodes(Workload w);

// Outcome of one whole simulation run.
struct RunResult {
  double wall_s = 0;         // host time of the simulation
  std::string report;        // canonical simulated output; equal runs match byte for byte
  uint64_t digest = 0;       // end-state digest (storm64, cluster128-flash)
  uint64_t attempted = 0;    // operations attempted (see README.md)
  uint64_t failed = 0;       // of those, operations that failed
  std::vector<std::string> errors;       // correctness checks that did not hold
  std::map<std::string, double> counts;  // per-layer counters read from the run
};

// Runs the workload once. `threads` 1 is the one-worker engine (the serial
// EventLoop on avm-omp), 2 is the ParallelEventLoop with two workers. With a
// non-null `spans`, every call into a simulator layer is recorded under the
// span `parent` and run id `run`.
RunResult RunWorkload(Workload w, uint64_t seed, int threads, SpanLog* spans, uint64_t parent,
                      uint64_t run);

// Host seconds to build the workload's simulated system once, up to its first
// event: inputs, engine, Fabric, RpcLayer and nodes (AggregateVm boot on
// avm-omp). Construction only; no event runs.
double SetupOnce(Workload w, uint64_t seed);

// The digest `fvsim storm` / `fvsim cluster` prints for this workload's
// configuration and seed, or 0 when none is pinned.
uint64_t PinnedDigest(Workload w, uint64_t seed);

}  // namespace fvbench

#endif  // FRAGVISOR_PERFBENCH_WORKLOADS_H_
