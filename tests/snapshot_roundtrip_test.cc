// Whole-sim snapshot round trip (DESIGN.md §10): save mid-run at an epoch
// boundary, load into a FRESH engine instance, continue — the resumed run's
// StormReport() must be byte-identical to the uninterrupted run's at several
// worker counts, with and without an armed fault plan. In-process
// fresh-instance restore is the tier-1 approximation of a fresh process;
// ci.sh additionally round-trips through two separate fvsim processes.

#include <cstdint>
#include <cstdio>
#include <string>

#include "gtest/gtest.h"
#include "src/cluster/marketplace.h"
#include "src/net/capture.h"
#include "src/workload/dsmstorm.h"

namespace fragvisor {
namespace {

StormOptions SmallStorm() {
  StormOptions o;
  o.num_nodes = 8;
  o.streams_per_node = 3;
  o.accesses_per_stream = 60;
  o.pages_per_node = 32;
  o.cache_slots = 8;
  o.remote_frac = 0.7;
  o.write_frac = 0.3;
  o.seed = 42;
  o.epochs = 3;
  return o;
}

StormOptions FaultyStorm() {
  StormOptions o = SmallStorm();
  o.drop_prob = 0.02;
  o.dup_prob = 0.01;
  o.extra_delay_max = Micros(3);
  o.crash_node = 2;
  o.crash_at = Micros(150);
  o.restart_at = Micros(400);
  return o;
}

// Reference run, then save-at-epoch + fresh-instance resume, at one worker
// count. Returns the resumed report for cross-checks.
std::string RoundTrip(const StormOptions& opts, int threads, int snapshot_epoch) {
  const StormResult reference = RunStorm(opts, threads);
  const std::string want = StormReport(reference);

  std::string snapshot;
  StormRunConfig save_cfg;
  save_cfg.snapshot_out = &snapshot;
  save_cfg.snapshot_epoch = snapshot_epoch;
  const StormResult saver = RunStormEx(opts, threads, save_cfg);
  // The saving run itself continues to completion and matches too.
  EXPECT_EQ(want, StormReport(saver));
  EXPECT_FALSE(snapshot.empty());

  StormRunConfig load_cfg;
  load_cfg.snapshot_in = &snapshot;
  std::string error;
  load_cfg.error = &error;
  const StormResult resumed = RunStormEx(opts, threads, load_cfg);
  EXPECT_EQ(error, "");
  const std::string got = StormReport(resumed);
  EXPECT_EQ(want, got);
  return got;
}

// One worker runs every partition serially on the calling thread.
TEST(SnapshotRoundtrip, SerialByteIdentical) {
  RoundTrip(SmallStorm(), /*threads=*/1, /*snapshot_epoch=*/1);
  RoundTrip(SmallStorm(), /*threads=*/1, /*snapshot_epoch=*/2);
}

TEST(SnapshotRoundtrip, ParallelByteIdenticalAcrossWorkerCounts) {
  const std::string one = RoundTrip(SmallStorm(), /*threads=*/1, /*snapshot_epoch=*/2);
  const std::string four = RoundTrip(SmallStorm(), /*threads=*/4, /*snapshot_epoch=*/2);
  // The determinism contract holds through the snapshot path too: worker
  // count changes nothing, including across the save/load boundary.
  EXPECT_EQ(one, four);
}

TEST(SnapshotRoundtrip, SaveOnOneWorkerCountLoadOnAnother) {
  const StormOptions opts = SmallStorm();
  std::string snapshot;
  StormRunConfig save_cfg;
  save_cfg.snapshot_out = &snapshot;
  save_cfg.snapshot_epoch = 1;
  RunStormEx(opts, /*threads=*/1, save_cfg);

  StormRunConfig load_cfg;
  load_cfg.snapshot_in = &snapshot;
  std::string error;
  load_cfg.error = &error;
  const StormResult resumed = RunStormEx(opts, /*threads=*/4, load_cfg);
  EXPECT_EQ(error, "");
  // Snapshots load at any worker count.
  EXPECT_EQ(StormReport(RunStorm(opts, 1)), StormReport(resumed));
}

TEST(SnapshotRoundtrip, UnderArmedFaultPlan) {
  RoundTrip(FaultyStorm(), /*threads=*/1, /*snapshot_epoch=*/1);
  RoundTrip(FaultyStorm(), /*threads=*/1, /*snapshot_epoch=*/2);
  RoundTrip(FaultyStorm(), /*threads=*/4, /*snapshot_epoch=*/2);
}

TEST(SnapshotRoundtrip, CaptureOfResumedRunMatchesSuffix) {
  // A resumed run's capture holds exactly the post-boundary deliveries: its
  // canonical log must be a suffix-consistent subset of the full run's (same
  // records at the same times past the boundary).
  const StormOptions opts = SmallStorm();
  CaptureLog full(opts.num_nodes);
  StormRunConfig full_cfg;
  full_cfg.capture = &full;
  std::string snapshot;
  full_cfg.snapshot_out = &snapshot;
  full_cfg.snapshot_epoch = 2;
  RunStormEx(opts, /*threads=*/1, full_cfg);

  CaptureLog tail(opts.num_nodes);
  StormRunConfig tail_cfg;
  tail_cfg.capture = &tail;
  tail_cfg.snapshot_in = &snapshot;
  std::string error;
  tail_cfg.error = &error;
  RunStormEx(opts, /*threads=*/1, tail_cfg);
  ASSERT_EQ(error, "");

  const auto full_records = full.Canonical();
  const auto tail_records = tail.Canonical();
  ASSERT_FALSE(tail_records.empty());
  ASSERT_LT(tail_records.size(), full_records.size());
  // Every tail record appears verbatim at the end of the full log, modulo
  // the per-src sequence numbers restarting at the boundary.
  const size_t offset = full_records.size() - tail_records.size();
  for (size_t i = 0; i < tail_records.size(); ++i) {
    const CaptureRecord& a = full_records[offset + i];
    const CaptureRecord& b = tail_records[i];
    EXPECT_EQ(a.time, b.time) << "record " << i;
    EXPECT_EQ(a.src, b.src) << "record " << i;
    EXPECT_EQ(a.dst, b.dst) << "record " << i;
    EXPECT_EQ(a.kind, b.kind) << "record " << i;
    EXPECT_EQ(a.payload_hash, b.payload_hash) << "record " << i;
  }
}

// FNV-1a over a snapshot's bytes, as hex.
std::string Fingerprint(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h = (h ^ static_cast<uint8_t>(c)) * 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string StormSnapshot(const StormOptions& opts, int threads) {
  std::string snapshot;
  StormRunConfig cfg;
  cfg.snapshot_out = &snapshot;
  cfg.snapshot_epoch = 1;
  RunStormEx(opts, threads, cfg);
  return snapshot;
}

// Snapshot bytes are part of the on-disk contract: how the fabric lays out
// its per-pair state (retry shards and FIFO clamps only under a fault plan)
// must not change a byte of them, plan-less or faulted.
TEST(SnapshotRoundtrip, BytesPinnedWithAndWithoutFaultPlan) {
  EXPECT_EQ(Fingerprint(StormSnapshot(SmallStorm(), 2)), "949cf66bd2a53d20");
  EXPECT_EQ(Fingerprint(StormSnapshot(FaultyStorm(), 2)), "cd7467e60f184590");

  MarketplaceOptions mo;
  mo.num_nodes = 6;
  mo.vcpus_per_node = 4;
  mo.trace.kind = ArrivalKind::kFlash;
  mo.trace.vms = 30;
  mo.trace.max_vcpus = 8;
  mo.trace.requests_per_vcpu = 500;
  mo.epochs = 2;
  std::string snapshot;
  MarketplaceRunConfig cfg;
  cfg.snapshot_out = &snapshot;
  cfg.snapshot_epoch = 1;
  RunMarketplaceEx(mo, 2, cfg);
  EXPECT_EQ(Fingerprint(snapshot), "b77a0ebad3382288");
}

TEST(SnapshotRoundtrip, EpochsDefaultUnchanged) {
  // epochs == 1 must reproduce the historical single-shot storm exactly:
  // the epoch machinery is pure refactoring for existing configurations.
  StormOptions o = SmallStorm();
  o.epochs = 1;
  const StormResult one = RunStorm(o, 1);
  EXPECT_GT(one.totals.remote_reads, 0u);
  EXPECT_EQ(StormReport(RunStorm(o, 4)), StormReport(one));
}

}  // namespace
}  // namespace fragvisor
