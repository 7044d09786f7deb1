// Version-skew and corruption handling for the snapshot container: a bumped
// format version, a truncated stream, or a bit-flipped byte must fail with a
// descriptive error and leave the target untouched — never a partial load,
// never a crash. The fuzz cases mutate a real storm snapshot with a seeded
// RNG so every CI run exercises the same mutations.

#include <cstdint>
#include <string>

#include "gtest/gtest.h"
#include "src/sim/rng.h"
#include "src/sim/snapshot.h"
#include "src/sim/state_io.h"
#include "src/workload/dsmstorm.h"

namespace fragvisor {
namespace {

StormOptions TinyStorm() {
  StormOptions o;
  o.num_nodes = 4;
  o.streams_per_node = 2;
  o.accesses_per_stream = 30;
  o.pages_per_node = 16;
  o.cache_slots = 4;
  o.seed = 7;
  o.epochs = 2;
  return o;
}

std::string TakeSnapshot(const StormOptions& opts) {
  std::string snapshot;
  StormRunConfig cfg;
  cfg.snapshot_out = &snapshot;
  cfg.snapshot_epoch = 1;
  RunStormEx(opts, /*threads=*/1, cfg);
  return snapshot;
}

// Re-seals a tampered payload with a fresh valid checksum, so the mutation
// reaches the semantic validation layer instead of the checksum gate.
std::string Reseal(std::string data) {
  const size_t payload = data.size() - 8;
  const uint64_t sum = SnapshotHashBytes(data.data(), payload);
  for (int i = 0; i < 8; ++i) {
    data[payload + static_cast<size_t>(i)] = static_cast<char>((sum >> (8 * i)) & 0xff);
  }
  return data;
}

// A load attempt that must fail cleanly: error out-param set, empty result.
std::string ExpectLoadFails(const StormOptions& opts, const std::string& snapshot) {
  StormRunConfig cfg;
  cfg.snapshot_in = &snapshot;
  std::string error;
  cfg.error = &error;
  const StormResult r = RunStormEx(opts, /*threads=*/1, cfg);
  EXPECT_FALSE(error.empty());
  // A refused load never partially runs: the default-constructed result has
  // no per-node state at all.
  EXPECT_TRUE(r.per_node.empty());
  EXPECT_EQ(r.totals.remote_reads, 0u);
  return error;
}

TEST(SnapshotSkew, BumpedFormatVersionRefusedWithClearError) {
  const StormOptions opts = TinyStorm();
  std::string snapshot = TakeSnapshot(opts);
  ASSERT_FALSE(snapshot.empty());
  // The version field sits right after the 8-byte magic, little-endian.
  snapshot[8] = static_cast<char>(kSnapshotFormatVersion + 1);
  const std::string error = ExpectLoadFails(opts, Reseal(snapshot));
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(SnapshotSkew, TruncationsAllRefused) {
  const StormOptions opts = TinyStorm();
  const std::string snapshot = TakeSnapshot(opts);
  for (const size_t keep :
       {size_t{0}, size_t{5}, size_t{12}, size_t{60}, snapshot.size() / 2, snapshot.size() - 1}) {
    ExpectLoadFails(opts, snapshot.substr(0, keep));
  }
}

TEST(SnapshotSkew, SeededBitFlipsAllRefusedOrHarmless) {
  const StormOptions opts = TinyStorm();
  const std::string snapshot = TakeSnapshot(opts);
  const std::string want = StormReport(RunStorm(opts, 1));
  Rng rng(0xD15C0);
  for (int trial = 0; trial < 64; ++trial) {
    std::string mutated = snapshot;
    const size_t at = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
    const char bit = static_cast<char>(1 << rng.UniformInt(0, 7));
    mutated[at] = static_cast<char>(mutated[at] ^ bit);
    // An unsealed flip must always trip the checksum gate.
    {
      SnapshotReader r(mutated);
      EXPECT_FALSE(r.ok()) << "flip at " << at << " slipped past the checksum";
    }
    StormRunConfig cfg;
    cfg.snapshot_in = &mutated;
    std::string error;
    cfg.error = &error;
    const StormResult r = RunStormEx(opts, /*threads=*/1, cfg);
    EXPECT_FALSE(error.empty());
    EXPECT_TRUE(r.per_node.empty());
  }
}

TEST(SnapshotSkew, ResealedSemanticCorruptionRefused) {
  // Flip payload bytes AND fix the checksum: the semantic validators (config
  // fingerprint, section tags, shape and range checks) must catch what the
  // checksum can no longer see. A flip the validators cannot distinguish
  // from real state (an RNG word, a counter) is legitimately accepted and
  // yields a different-but-complete run — the invariant under test is
  // "clean refusal or complete run, never a crash or partial load".
  const StormOptions opts = TinyStorm();
  const std::string snapshot = TakeSnapshot(opts);
  Rng rng(0xBADC0DE);
  int refused = 0;
  for (int trial = 0; trial < 48; ++trial) {
    std::string mutated = snapshot;
    // Corrupt within the payload (past the 12-byte header, before the
    // 8-byte checksum) so the header checks stay out of the picture.
    const size_t lo = 12;
    const size_t hi = mutated.size() - 9;
    const size_t at = static_cast<size_t>(
        rng.UniformInt(static_cast<int64_t>(lo), static_cast<int64_t>(hi)));
    mutated[at] = static_cast<char>(mutated[at] ^ 0xff);
    mutated = Reseal(mutated);
    StormRunConfig cfg;
    cfg.snapshot_in = &mutated;
    std::string error;
    cfg.error = &error;
    const StormResult r = RunStormEx(opts, /*threads=*/1, cfg);
    if (!error.empty()) {
      ++refused;
      EXPECT_TRUE(r.per_node.empty());
    } else {
      EXPECT_EQ(r.per_node.size(), static_cast<size_t>(opts.num_nodes))
          << "accepted load did not run to completion (byte " << at << ")";
    }
  }
  EXPECT_GT(refused, 0);
}

TEST(SnapshotSkew, WrongOptionsRefused) {
  const StormOptions opts = TinyStorm();
  const std::string snapshot = TakeSnapshot(opts);
  StormOptions other = opts;
  other.seed += 1;
  const std::string error = ExpectLoadFails(other, snapshot);
  EXPECT_NE(error.find("StormOptions"), std::string::npos) << error;
}

TEST(SnapshotSkew, CounterSetCountPastTheStreamRefused) {
  // A count prefix is checked against the bytes left before anything is
  // sized from it: 2^32 - 1 would be a negative node count, 2^20 a large
  // allocation for a stream that holds one value.
  for (const uint32_t count : {0xffffffffu, 1u << 20}) {
    SnapshotWriter w;
    w.BeginSection("counters");
    w.U32(count);
    w.U64(7);
    const std::string data = w.Finish();
    SnapshotReader r(data);
    ASSERT_TRUE(r.Section("counters"));
    NodeCounterSet set(3);
    LoadNodeCounterSet(&r, &set);
    EXPECT_FALSE(r.ok()) << count;
    EXPECT_NE(r.error().find("exceeds the rest of the stream"), std::string::npos) << r.error();
    EXPECT_EQ(set.num_nodes(), 3);
  }
}

}  // namespace
}  // namespace fragvisor
