// Tier-2 seed-swept determinism check for the parallel core: the DSM storm,
// with heavy fault injection, must produce byte-identical reports across
// worker counts for EVERY seed — not just the one tier-1 pins down.
// FV_FAULT_SEED relocates the seed block so CI can sweep distinct seeds.

#include <cstdlib>
#include <string>

#include "gtest/gtest.h"
#include "src/workload/dsmstorm.h"

namespace fragvisor {
namespace {

uint64_t BaseSeed() {
  const char* env = std::getenv("FV_FAULT_SEED");
  return env != nullptr ? static_cast<uint64_t>(std::atoll(env)) : 1;
}

TEST(ParallelDeterminismTest, StormByteIdenticalAcrossWorkerCountsSeedSweep) {
  for (uint64_t s = 0; s < 4; ++s) {
    StormOptions so;
    so.num_nodes = 24;
    so.streams_per_node = 3;
    so.accesses_per_stream = 60;
    so.pages_per_node = 24;
    so.cache_slots = 6;
    so.seed = BaseSeed() * 1000 + s;
    so.drop_prob = 0.04;
    so.dup_prob = 0.03;
    so.extra_delay_max = Micros(4);
    so.crash_node = static_cast<int32_t>((BaseSeed() + s) % so.num_nodes);
    so.crash_at = Micros(30);
    so.restart_at = Micros(150);
    so.partition_a = static_cast<int32_t>(s % so.num_nodes);
    so.partition_b = static_cast<int32_t>((s + 7) % so.num_nodes);
    if (so.partition_a == so.partition_b) {
      so.partition_b = (so.partition_b + 1) % so.num_nodes;
    }
    so.partition_from = Micros(10);
    so.partition_until = Micros(120);

    const std::string ref = StormReport(RunStorm(so, 1));
    for (const int threads : {2, 4, 8}) {
      EXPECT_EQ(StormReport(RunStorm(so, threads)), ref)
          << "seed=" << so.seed << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace fragvisor
