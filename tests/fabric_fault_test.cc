// Fault-plan and reliable-channel properties of net::Fabric (tier 1):
// timeline queries, FIFO preservation under injected jitter, duplicate
// ordering, exactly-once delivery under drops, give-up after max attempts,
// datagram capture, settle notifications, agreement of the two engines on
// one faulty send script, and the empty-plan bit-identity guards (golden DSM
// trace and a full NPB harness run must not change by a single nanosecond
// when an empty FaultPlan is attached).

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/harness.h"
#include "src/net/capture.h"
#include "src/net/fabric.h"
#include "src/sim/event_loop.h"
#include "src/sim/fault_plan.h"
#include "src/workload/goldentrace.h"
#include "tests/engine_fabric.h"

namespace fragvisor {
namespace {

TEST(FaultPlanTest, NodeTimelineQueries) {
  FaultPlan plan(1);
  plan.CrashNode(2, Micros(100));
  plan.RestartNode(2, Micros(300));
  EXPECT_TRUE(plan.NodeUp(2, 0));
  EXPECT_TRUE(plan.NodeUp(2, Micros(100) - 1));
  EXPECT_FALSE(plan.NodeUp(2, Micros(100)));
  EXPECT_FALSE(plan.NodeUp(2, Micros(300) - 1));
  EXPECT_TRUE(plan.NodeUp(2, Micros(300)));
  EXPECT_TRUE(plan.NodeUp(1, Micros(200)));  // other nodes unaffected

  EXPECT_EQ(plan.LastCrashBefore(2, Micros(50)), -1);
  EXPECT_EQ(plan.LastCrashBefore(2, Micros(200)), Micros(100));
  EXPECT_EQ(plan.LastCrashBefore(1, Micros(200)), -1);
}

TEST(FaultPlanTest, PartitionIsBidirectionalAndHeals) {
  FaultPlan plan(1);
  plan.PartitionLink(0, 1, Micros(10), Micros(20));
  EXPECT_FALSE(plan.LinkCut(0, 1, Micros(10) - 1));
  EXPECT_TRUE(plan.LinkCut(0, 1, Micros(10)));
  EXPECT_TRUE(plan.LinkCut(1, 0, Micros(15)));
  EXPECT_FALSE(plan.LinkCut(0, 1, Micros(20)));
  EXPECT_FALSE(plan.LinkCut(0, 2, Micros(15)));
}

TEST(FabricFaultTest, EmptyPlanGoldenTraceBitIdentical) {
  const GoldenTraceResult base = RunGoldenTrace();
  FaultPlan plan(0xFEED);
  const GoldenTraceResult with_plan = RunGoldenTrace(&plan);

  EXPECT_EQ(base.hits, with_plan.hits);
  EXPECT_EQ(base.resolved, with_plan.resolved);
  EXPECT_EQ(base.read_faults, with_plan.read_faults);
  EXPECT_EQ(base.write_faults, with_plan.write_faults);
  EXPECT_EQ(base.invalidations, with_plan.invalidations);
  EXPECT_EQ(base.page_transfers, with_plan.page_transfers);
  EXPECT_EQ(base.prefetched_pages, with_plan.prefetched_pages);
  EXPECT_EQ(base.protocol_messages, with_plan.protocol_messages);
  EXPECT_EQ(base.protocol_bytes, with_plan.protocol_bytes);
  EXPECT_EQ(base.migrated, with_plan.migrated);
  EXPECT_EQ(base.reseeded, with_plan.reseeded);
  EXPECT_EQ(base.pages_checked, with_plan.pages_checked);
  EXPECT_EQ(base.final_time, with_plan.final_time);

  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.stats().messages_dropped.value(), 0u);
  EXPECT_EQ(plan.stats().messages_duplicated.value(), 0u);
  EXPECT_EQ(plan.stats().messages_delayed.value(), 0u);
}

TEST(FabricFaultTest, EmptyPlanHarnessRunBitIdentical) {
  const NpbProfile profile = ScaleNpb(NpbByName("CG"), 0.1);

  bench::Setup plain;
  plain.vcpus = 3;
  double plain_faults = 0;
  const TimeNs plain_end = bench::RunNpbMultiProcess(plain, profile, 1, &plain_faults);

  bench::Setup with_plan = plain;
  with_plan.faults.attach_empty = true;
  double plan_faults = 0;
  bench::FaultReport report;
  const TimeNs plan_end =
      bench::RunNpbMultiProcess(with_plan, profile, 1, &plan_faults, &report);

  EXPECT_EQ(plain_end, plan_end);
  EXPECT_EQ(plain_faults, plan_faults);
  EXPECT_EQ(report, bench::FaultReport());  // every fault counter still zero
}

// The reliable-channel cases below run every body on both engines: the
// serial EventLoop and a 2-worker ParallelEventLoop (tests/engine_fabric.h).
// Callbacks that record at the receiver write receiver-only state, and
// on_fail/on_settle write sender-only state, so the parallel runs are
// race-free.

TEST(FabricFaultTest, FifoPreservedUnderJitter) {
  for (const Engine engine : kEngines) {
    SCOPED_TRACE(EngineName(engine));
    EngineFabric net(engine, 2);
    FaultPlan plan(7);
    LinkFaultProfile profile;
    profile.extra_delay_max = Micros(3);
    plan.SetDefaultLinkFaults(profile);
    net.AttachFaultPlan(&plan);

    constexpr int kMessages = 200;
    std::vector<int> order;
    for (int i = 0; i < kMessages; ++i) {
      net.fabric().Send(0, 1, MsgKind::kControl, 4096, [&order, i]() { order.push_back(i); });
    }
    net.Run();

    ASSERT_EQ(order.size(), static_cast<size_t>(kMessages));
    for (int i = 0; i < kMessages; ++i) {
      EXPECT_EQ(order[static_cast<size_t>(i)], i) << "reordered at position " << i;
    }
    EXPECT_GT(plan.MergedStats().messages_delayed.value(), 0u);
  }
}

TEST(FabricFaultTest, DatagramFifoPreservedUnderJitter) {
  for (const Engine engine : kEngines) {
    SCOPED_TRACE(EngineName(engine));
    EngineFabric net(engine, 2);
    FaultPlan plan(11);
    LinkFaultProfile profile;
    profile.extra_delay_max = Micros(5);
    plan.SetDefaultLinkFaults(profile);
    net.AttachFaultPlan(&plan);

    constexpr int kMessages = 200;
    std::vector<int> order;
    for (int i = 0; i < kMessages; ++i) {
      net.fabric().SendDatagram(0, 1, MsgKind::kControl, 1024,
                                [&order, i]() { order.push_back(i); });
    }
    net.Run();

    ASSERT_EQ(order.size(), static_cast<size_t>(kMessages));
    for (int i = 0; i < kMessages; ++i) {
      EXPECT_EQ(order[static_cast<size_t>(i)], i);
    }
  }
}

TEST(FabricFaultTest, DuplicateNeverReordersAheadOfOriginal) {
  for (const Engine engine : kEngines) {
    SCOPED_TRACE(EngineName(engine));
    EngineFabric net(engine, 2);
    FaultPlan plan(13);
    LinkFaultProfile profile;
    profile.dup_prob = 1.0;  // duplicate every datagram
    plan.SetDefaultLinkFaults(profile);
    net.AttachFaultPlan(&plan);

    constexpr int kMessages = 100;
    std::vector<int> order;
    for (int i = 0; i < kMessages; ++i) {
      net.fabric().SendDatagram(0, 1, MsgKind::kControl, 512,
                                [&order, i]() { order.push_back(i); });
    }
    net.Run();

    // Every datagram delivered twice; with the per-link FIFO clamp the
    // duplicate lands right behind its original, never ahead of it.
    ASSERT_EQ(order.size(), static_cast<size_t>(2 * kMessages));
    for (int i = 0; i < kMessages; ++i) {
      EXPECT_EQ(order[static_cast<size_t>(2 * i)], i);
      EXPECT_EQ(order[static_cast<size_t>(2 * i + 1)], i);
    }
    EXPECT_EQ(plan.MergedStats().messages_duplicated.value(), static_cast<uint64_t>(kMessages));
  }
}

TEST(FabricFaultTest, ReliableDeliveryIsExactlyOnceUnderDropsAndDups) {
  for (const Engine engine : kEngines) {
    SCOPED_TRACE(EngineName(engine));
    EngineFabric net(engine, 2);
    FaultPlan plan(17);
    LinkFaultProfile profile;
    profile.drop_prob = 0.3;
    profile.dup_prob = 0.3;
    profile.extra_delay_max = Micros(2);
    plan.SetDefaultLinkFaults(profile);
    net.AttachFaultPlan(&plan);

    constexpr int kMessages = 300;
    std::vector<int> delivered(kMessages, 0);
    int failed = 0;
    for (int i = 0; i < kMessages; ++i) {
      net.fabric().Send(0, 1, MsgKind::kControl, 2048,
                        [&delivered, i]() { ++delivered[static_cast<size_t>(i)]; }, 0,
                        [&failed]() { ++failed; });
    }
    net.Run();

    for (int i = 0; i < kMessages; ++i) {
      EXPECT_EQ(delivered[static_cast<size_t>(i)], 1) << "message " << i;
    }
    EXPECT_EQ(failed, 0);
    const RetryStats retry = net.fabric().MergedRetryStats();
    EXPECT_GT(retry.retransmits.total(), 0u);
    EXPECT_GT(retry.timeouts.total(), 0u);
    EXPECT_GT(retry.dups_suppressed.value(1), 0u);  // charged to the receiver
    EXPECT_EQ(retry.retransmits.value(0), retry.retransmits.total());  // and to the sender
  }
}

TEST(FabricFaultTest, SendToCrashedNodeFailsAfterMaxAttempts) {
  for (const Engine engine : kEngines) {
    SCOPED_TRACE(EngineName(engine));
    EngineFabric net(engine, 2);
    FaultPlan plan(19);
    plan.CrashNode(1, 0);  // dead from the start, never restarts
    RetryPolicy policy;
    net.AttachFaultPlan(&plan, policy);

    int delivered = 0;
    int failed = 0;
    net.fabric().Send(0, 1, MsgKind::kControl, 256, [&delivered]() { ++delivered; }, 0,
                      [&failed]() { ++failed; });
    net.Run();

    EXPECT_EQ(delivered, 0);
    EXPECT_EQ(failed, 1);
    const RetryStats retry = net.fabric().MergedRetryStats();
    EXPECT_EQ(retry.send_failures.value(0), 1u);
    EXPECT_EQ(retry.timeouts.value(0), static_cast<uint64_t>(policy.max_attempts));
    EXPECT_EQ(retry.retransmits.value(0), static_cast<uint64_t>(policy.max_attempts - 1));
  }
}

TEST(FabricFaultTest, PartitionDelaysButDoesNotLoseReliableSends) {
  for (const Engine engine : kEngines) {
    SCOPED_TRACE(EngineName(engine));
    EngineFabric net(engine, 2);
    FaultPlan plan(23);
    // Cut 0<->1 for 2 ms starting immediately; retries carry the message
    // over the heal.
    plan.PartitionLink(0, 1, 0, Millis(2));
    net.AttachFaultPlan(&plan);

    int delivered = 0;
    TimeNs delivered_at = -1;
    int failed = 0;
    net.fabric().Send(0, 1, MsgKind::kControl, 256,
                      [&]() {
                        ++delivered;
                        delivered_at = net.now(1);
                      },
                      0, [&failed]() { ++failed; });
    net.Run();

    EXPECT_EQ(delivered, 1);
    EXPECT_EQ(failed, 0);
    EXPECT_GT(net.fabric().MergedRetryStats().retransmits.value(0), 0u);
    EXPECT_GE(delivered_at, Millis(2));  // delivery happened after the heal
  }
}

// Every committed datagram copy is a capture record (capture.h): a
// duplicated datagram is two records, a dropped one none.
TEST(FabricFaultTest, DatagramCopiesAreCapturedUnderPlan) {
  for (const Engine engine : kEngines) {
    for (const bool dup : {true, false}) {
      SCOPED_TRACE(std::string(EngineName(engine)) + (dup ? " dup" : " drop"));
      EngineFabric net(engine, 2);
      CaptureLog capture(2);
      net.fabric().SetCapture(&capture);
      FaultPlan plan(29);
      LinkFaultProfile profile;
      (dup ? profile.dup_prob : profile.drop_prob) = 1.0;
      plan.SetDefaultLinkFaults(profile);
      net.AttachFaultPlan(&plan);

      int delivered = 0;
      net.fabric().SendDatagram(0, 1, MsgKind::kControl, 512, [&delivered]() { ++delivered; });
      net.Run();

      EXPECT_EQ(delivered, dup ? 2 : 0);
      EXPECT_EQ(capture.total_records(), dup ? 2u : 0u);
    }
  }
}

// on_settle on a serial fabric: it runs once, on the sender, at the
// accepted copy's arrival instant — with or without a plan, over loopback
// too — and a send that fails never settles.
TEST(FabricFaultTest, SerialSettleRunsOnceAtArrival) {
  for (const bool with_plan : {false, true}) {
    SCOPED_TRACE(with_plan ? "plan" : "no plan");
    EventLoop loop;
    Fabric fabric(&loop, 2, LinkParams::InfiniBand56G());
    FaultPlan plan(31);
    if (with_plan) {
      LinkFaultProfile profile;
      profile.drop_prob = 0.3;
      profile.dup_prob = 0.3;
      profile.extra_delay_max = Micros(2);
      plan.SetDefaultLinkFaults(profile);
      fabric.AttachFaultPlan(&plan);
    }
    constexpr int kMessages = 50;
    std::vector<TimeNs> delivered_at(kMessages, -1);
    std::vector<TimeNs> settled_at(kMessages, -1);
    std::vector<int> settles(kMessages, 0);
    for (int i = 0; i < kMessages; ++i) {
      const auto at = static_cast<size_t>(i);
      const NodeId dst = i % 5 == 0 ? 0 : 1;  // every fifth is loopback
      fabric.Send(0, dst, MsgKind::kControl, 1024, [&, at]() { delivered_at[at] = loop.now(); },
                  0, nullptr, [&, at]() {
                    ++settles[at];
                    settled_at[at] = loop.now();
                  });
    }
    loop.Run();
    for (size_t i = 0; i < kMessages; ++i) {
      EXPECT_EQ(settles[i], 1) << "message " << i;
      EXPECT_GE(delivered_at[i], 0) << "message " << i;
      EXPECT_EQ(settled_at[i], delivered_at[i]) << "message " << i;
    }
  }
}

TEST(FabricFaultTest, SerialSettleNeverFollowsFail) {
  EventLoop loop;
  Fabric fabric(&loop, 2, LinkParams::InfiniBand56G());
  FaultPlan plan(37);
  LinkFaultProfile profile;
  // Nothing is lost, but about half the copies land after the single
  // attempt's ack grace: the sender gives up while its committed winner is
  // in flight, and the serial loop withdraws that delivery exactly.
  profile.extra_delay_max = Micros(400);
  plan.SetDefaultLinkFaults(profile);
  RetryPolicy policy;
  policy.ack_grace = Micros(200);
  policy.max_grace = Micros(200);
  policy.max_attempts = 1;
  fabric.AttachFaultPlan(&plan, policy);

  constexpr int kMessages = 100;
  std::vector<int> delivered(kMessages, 0);
  std::vector<int> failed(kMessages, 0);
  std::vector<int> settled(kMessages, 0);
  std::vector<int> settled_after_fail(kMessages, 0);
  for (int i = 0; i < kMessages; ++i) {
    const auto at = static_cast<size_t>(i);
    // One send per millisecond, so no copy is clamped behind an earlier one.
    loop.ScheduleAt(Millis(1) * i, [&, at]() {
      fabric.Send(0, 1, MsgKind::kControl, 256, [&, at]() { ++delivered[at]; }, 0,
                  [&, at]() { ++failed[at]; },
                  [&, at]() {
                    ++settled[at];
                    settled_after_fail[at] += failed[at];
                  });
    });
  }
  loop.Run();

  int fails = 0;
  for (size_t i = 0; i < kMessages; ++i) {
    EXPECT_EQ(settled[i] + failed[i], 1) << "message " << i;
    EXPECT_EQ(delivered[i], settled[i]) << "message " << i;
    EXPECT_EQ(settled_after_fail[i], 0) << "message " << i;
    fails += failed[i];
  }
  EXPECT_GT(fails, 0);
  EXPECT_LT(fails, kMessages);
  EXPECT_EQ(fabric.retry_stats().send_failures.value(0), static_cast<uint64_t>(fails));
}

// Differential check: one fault plan and one send script give the same
// delivery transcript and the same reliability counters on both engines.
TEST(FabricFaultTest, EnginesAgreeOnTranscriptAndRetryStats) {
  constexpr int kNodes = 4;
  struct Event {
    TimeNs time;
    int id;
    bool operator<(const Event& o) const { return time != o.time ? time < o.time : id < o.id; }
    bool operator==(const Event& o) const { return time == o.time && id == o.id; }
  };
  struct Outcome {
    std::vector<std::vector<Event>> delivered;  // [receiver]
    std::vector<std::vector<Event>> failed;     // [sender]
    std::vector<std::vector<Event>> settled;    // [sender]
    RetryStats retry;
    FaultPlanStats faults;
    uint64_t messages = 0;
  };
  auto run = [&](Engine engine) {
    EngineFabric net(engine, kNodes);
    Fabric& fabric = net.fabric();
    // Distinct per-pair latencies keep arrivals at one node off each other's
    // instants, so each node's event order is the same on both engines.
    for (NodeId s = 0; s < kNodes; ++s) {
      for (NodeId d = 0; d < kNodes; ++d) {
        LinkParams lp = LinkParams::InfiniBand56G();
        lp.latency += 37 * s + 101 * d;
        fabric.SetLinkParams(s, d, lp);
      }
    }
    FaultPlan plan(41);
    LinkFaultProfile profile;
    profile.drop_prob = 0.2;
    profile.dup_prob = 0.2;
    profile.extra_delay_max = Micros(40);
    plan.SetDefaultLinkFaults(profile);
    plan.PartitionLink(0, 2, Micros(100), Micros(900));
    plan.CrashNode(3, Micros(400));
    plan.RestartNode(3, Millis(3));
    RetryPolicy policy;
    policy.max_attempts = 4;
    net.AttachFaultPlan(&plan, policy);

    Outcome out;
    out.delivered.resize(kNodes);
    out.failed.resize(kNodes);
    out.settled.resize(kNodes);
    for (int k = 0; k < 60; ++k) {
      const NodeId src = k % kNodes;
      const NodeId dst = (src + 1 + k / kNodes % (kNodes - 1)) % kNodes;
      const int id = k;
      fabric.node_loop(src)->ScheduleAt(Micros(13) * k + 7, [&, src, dst, id]() {
        // Every delivered request triggers one reliable reply.
        auto reply = [&, src, dst, id]() {
          out.delivered[static_cast<size_t>(dst)].push_back({net.now(dst), id});
          fabric.Send(dst, src, MsgKind::kDsmAck, 64,
                      [&, src, id]() {
                        out.delivered[static_cast<size_t>(src)].push_back({net.now(src), 1000 + id});
                      },
                      Nanos(300), [&, dst, id]() {
                        out.failed[static_cast<size_t>(dst)].push_back({net.now(dst), 1000 + id});
                      });
        };
        if (id % 3 == 0) {
          fabric.SendDatagram(src, dst, MsgKind::kControl, 128, std::move(reply));
          return;
        }
        fabric.Send(src, dst, MsgKind::kDsmPageData, 4096, std::move(reply), 0,
                    [&, src, id]() {
                      out.failed[static_cast<size_t>(src)].push_back({net.now(src), id});
                    },
                    [&, src, id]() {
                      out.settled[static_cast<size_t>(src)].push_back({net.now(src), id});
                    });
      });
    }
    net.Run();
    for (auto* lists : {&out.delivered, &out.failed, &out.settled}) {
      for (std::vector<Event>& l : *lists) {
        std::sort(l.begin(), l.end());
      }
    }
    out.retry = fabric.MergedRetryStats();
    out.faults = plan.MergedStats();
    out.messages = fabric.MergedStats().total_messages.value();
    return out;
  };

  const Outcome serial = run(Engine::kSerial);
  const Outcome parallel = run(Engine::kParallel);
  size_t deliveries = 0;
  size_t fails = 0;
  for (int n = 0; n < kNodes; ++n) {
    const auto i = static_cast<size_t>(n);
    EXPECT_EQ(serial.delivered[i], parallel.delivered[i]) << "receiver " << n;
    EXPECT_EQ(serial.failed[i], parallel.failed[i]) << "sender " << n;
    EXPECT_EQ(serial.settled[i], parallel.settled[i]) << "sender " << n;
    EXPECT_EQ(serial.retry.retransmits.value(n), parallel.retry.retransmits.value(n));
    EXPECT_EQ(serial.retry.timeouts.value(n), parallel.retry.timeouts.value(n));
    EXPECT_EQ(serial.retry.send_failures.value(n), parallel.retry.send_failures.value(n));
    EXPECT_EQ(serial.retry.dups_suppressed.value(n), parallel.retry.dups_suppressed.value(n));
    deliveries += serial.delivered[i].size();
    fails += serial.failed[i].size();
  }
  EXPECT_EQ(serial.messages, parallel.messages);
  EXPECT_EQ(serial.faults.messages_dropped.value(), parallel.faults.messages_dropped.value());
  EXPECT_EQ(serial.faults.messages_duplicated.value(),
            parallel.faults.messages_duplicated.value());
  EXPECT_EQ(serial.faults.node_crashes.value(), parallel.faults.node_crashes.value());
  // The script exercises what it claims to: deliveries, failures against
  // the crashed node, retransmits and suppressed duplicates.
  EXPECT_GT(deliveries, 60u);
  EXPECT_GT(fails, 0u);
  EXPECT_GT(serial.retry.retransmits.total(), 0u);
  EXPECT_GT(serial.retry.dups_suppressed.total(), 0u);
}

}  // namespace
}  // namespace fragvisor
