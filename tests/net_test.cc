#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/net/fabric.h"
#include "src/sim/event_loop.h"
#include "src/sim/fault_plan.h"
#include "tests/engine_fabric.h"

namespace fragvisor {
namespace {

TEST(LinkParamsTest, Profiles) {
  const LinkParams ib = LinkParams::InfiniBand56G();
  EXPECT_EQ(ib.latency, Nanos(1500));
  EXPECT_DOUBLE_EQ(ib.bytes_per_second, 7e9);
  const LinkParams eth = LinkParams::Ethernet1G();
  EXPECT_EQ(eth.latency, Micros(100));
  EXPECT_DOUBLE_EQ(eth.bytes_per_second, 1.25e8);
}

TEST(WireTimeTest, Computation) {
  LinkParams p;
  p.bytes_per_second = 1e9;
  EXPECT_EQ(WireTime(p, 1000), Micros(1));
  EXPECT_EQ(WireTime(p, 0), 0);
}

class FabricTest : public ::testing::Test {
 protected:
  FabricTest() : fabric_(&loop_, 4, LinkParams::InfiniBand56G()) {}

  EventLoop loop_;
  Fabric fabric_;
};

TEST_F(FabricTest, DeliveryTimeIsWirePlusLatency) {
  TimeNs delivered = -1;
  fabric_.Send(0, 1, MsgKind::kControl, 7000, [&]() { delivered = loop_.now(); });
  loop_.Run();
  // 7000 B at 7 GB/s = 1 us serialization + 1.5 us latency.
  EXPECT_EQ(delivered, Micros(1) + Nanos(1500));
}

TEST_F(FabricTest, SameLinkSerializesFifo) {
  std::vector<TimeNs> times;
  for (int i = 0; i < 3; ++i) {
    fabric_.Send(0, 1, MsgKind::kDsmPageData, 7000, [&]() { times.push_back(loop_.now()); });
  }
  loop_.Run();
  ASSERT_EQ(times.size(), 3u);
  // Serialization accumulates: 1us, 2us, 3us (+ fixed latency each).
  EXPECT_EQ(times[0], Micros(1) + Nanos(1500));
  EXPECT_EQ(times[1], Micros(2) + Nanos(1500));
  EXPECT_EQ(times[2], Micros(3) + Nanos(1500));
}

TEST_F(FabricTest, DistinctLinksDoNotSerialize) {
  std::vector<TimeNs> times;
  fabric_.Send(0, 1, MsgKind::kControl, 7000, [&]() { times.push_back(loop_.now()); });
  fabric_.Send(0, 2, MsgKind::kControl, 7000, [&]() { times.push_back(loop_.now()); });
  fabric_.Send(2, 1, MsgKind::kControl, 7000, [&]() { times.push_back(loop_.now()); });
  loop_.Run();
  for (const TimeNs t : times) {
    EXPECT_EQ(t, Micros(1) + Nanos(1500));
  }
}

TEST_F(FabricTest, ReverseDirectionIsSeparateLink) {
  TimeNs t01 = -1;
  TimeNs t10 = -1;
  fabric_.Send(0, 1, MsgKind::kControl, 7000, [&]() { t01 = loop_.now(); });
  fabric_.Send(1, 0, MsgKind::kControl, 7000, [&]() { t10 = loop_.now(); });
  loop_.Run();
  EXPECT_EQ(t01, t10);  // full duplex
}

TEST_F(FabricTest, LoopbackIsImmediateAndUnaccounted) {
  TimeNs delivered = -1;
  fabric_.Send(2, 2, MsgKind::kDsmPageData, 1 << 20, [&]() { delivered = loop_.now(); });
  loop_.Run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(fabric_.wire_bytes(), 0u);
  EXPECT_EQ(fabric_.stats().total_messages.value(), 0u);
}

TEST_F(FabricTest, PerKindAccounting) {
  fabric_.Send(0, 1, MsgKind::kIpi, 64, []() {});
  fabric_.Send(0, 1, MsgKind::kIpi, 64, []() {});
  fabric_.Send(1, 0, MsgKind::kDsmPageData, 4160, []() {});
  loop_.Run();
  const auto& stats = fabric_.stats();
  EXPECT_EQ(stats.messages[static_cast<size_t>(MsgKind::kIpi)].value(), 2u);
  EXPECT_EQ(stats.bytes[static_cast<size_t>(MsgKind::kIpi)].value(), 128u);
  EXPECT_EQ(stats.messages[static_cast<size_t>(MsgKind::kDsmPageData)].value(), 1u);
  EXPECT_EQ(stats.total_bytes.value(), 128u + 4160u);
}

TEST_F(FabricTest, LinkParamsOverride) {
  fabric_.SetLinkParams(0, 3, LinkParams::Ethernet1G());
  TimeNs slow = -1;
  TimeNs fast = -1;
  fabric_.Send(0, 3, MsgKind::kIoPayload, 125000, [&]() { slow = loop_.now(); });
  fabric_.Send(0, 1, MsgKind::kIoPayload, 125000, [&]() { fast = loop_.now(); });
  loop_.Run();
  // 125000 B at 125 MB/s = 1 ms + 100 us latency on the slow link.
  EXPECT_EQ(slow, Millis(1) + Micros(100));
  EXPECT_LT(fast, Micros(20));
}

// The link table is one dense array at every cluster size and on both
// engines: past 512 nodes too, every pair starts at the defaults and an
// override touches exactly its own directed pair.
TEST_F(FabricTest, LinkTableAtScaleOnBothEngines) {
  const LinkParams ib = LinkParams::InfiniBand56G();
  const LinkParams eth = LinkParams::Ethernet1G();
  for (const int nodes : {513, 1024}) {
    for (const Engine engine : kEngines) {
      SCOPED_TRACE(std::to_string(nodes) + " nodes, " + EngineName(engine));
      EngineFabric net(engine, nodes);
      Fabric& fabric = net.fabric();
      const NodeId last = nodes - 1;
      for (const auto& [s, d] : {std::pair<NodeId, NodeId>{0, 1}, {0, last}, {last, 0},
                                 {last, last - 1}, {512, 511}}) {
        EXPECT_EQ(fabric.link_params(s, d).latency, ib.latency);
        EXPECT_EQ(fabric.link_params(s, d).bytes_per_second, ib.bytes_per_second);
      }
      fabric.SetLinkParams(last, 3, eth);
      EXPECT_EQ(fabric.link_params(last, 3).latency, eth.latency);
      EXPECT_EQ(fabric.link_params(3, last).latency, ib.latency);
      EXPECT_EQ(fabric.link_params(last, 4).latency, ib.latency);

      TimeNs slow = -1;
      TimeNs fast = -1;
      fabric.Send(last, 3, MsgKind::kIoPayload, 125000, [&]() { slow = net.now(3); });
      fabric.Send(last, 4, MsgKind::kIoPayload, 125000, [&]() { fast = net.now(4); });
      net.Run();
      // 125000 B at 125 MB/s = 1 ms + 100 us latency on the slow link.
      EXPECT_EQ(slow, Millis(1) + Micros(100));
      EXPECT_LT(fast, Micros(20));
    }
  }
}

// Per-pair latency jitter keeps a link's bandwidth and one-sided setup, so
// it interns no new profile; Ethernet overrides to and from one node add
// exactly one. Every pair then reads back exactly what was set.
TEST_F(FabricTest, LinkProfilesInternAndRoundTripOnBothEngines) {
  const LinkParams ib = LinkParams::InfiniBand56G();
  const LinkParams eth = LinkParams::Ethernet1G();
  for (const int nodes : {64, 513}) {
    for (const Engine engine : kEngines) {
      SCOPED_TRACE(std::to_string(nodes) + " nodes, " + EngineName(engine));
      EngineFabric net(engine, nodes);
      Fabric& fabric = net.fabric();
      const NodeId client = nodes - 1;
      const auto want = [&](NodeId s, NodeId d) {
        if (s == d) {
          return ib;  // never set: the defaults
        }
        LinkParams p = s == client || d == client ? eth : ib;
        p.latency += static_cast<TimeNs>((s * 7919 + d * 104729) % 1000);
        return p;
      };
      for (NodeId s = 0; s < nodes; ++s) {
        for (NodeId d = 0; d < nodes; ++d) {
          if (s != d) {
            fabric.SetLinkParams(s, d, want(s, d));
          }
        }
      }
      EXPECT_EQ(fabric.num_link_profiles(), 2);
      int mismatches = 0;
      for (NodeId s = 0; s < nodes; ++s) {
        for (NodeId d = 0; d < nodes; ++d) {
          mismatches += fabric.link_params(s, d) == want(s, d) ? 0 : 1;
        }
      }
      EXPECT_EQ(mismatches, 0);
      EXPECT_EQ(fabric.link_params(client, 0).one_sided_setup, eth.one_sided_setup);
      EXPECT_EQ(fabric.link_params(0, 1).bytes_per_second, ib.bytes_per_second);
    }
  }
}

// Retry shards exist only under a fault plan. Without one, the merged view
// and every shard a snapshot reads still hold N zeroed counters per set.
TEST_F(FabricTest, PlanlessRetryStatsAreZeroedOnBothEngines) {
  constexpr int kNodes = 16;
  for (const Engine engine : kEngines) {
    SCOPED_TRACE(EngineName(engine));
    EngineFabric net(engine, kNodes);
    Fabric& fabric = net.fabric();
    // One slot per receiver: each is written only on its own partition.
    std::vector<int> delivered(kNodes, 0);
    for (NodeId s = 0; s < kNodes; ++s) {
      const NodeId d = (s + 1) % kNodes;
      fabric.Send(s, d, MsgKind::kControl, 64, [&delivered, d]() { ++delivered[d]; });
    }
    net.Run();
    EXPECT_EQ(delivered, std::vector<int>(kNodes, 1));
    const RetryStats merged = fabric.MergedRetryStats();
    for (const NodeCounterSet* set : {&merged.retransmits, &merged.timeouts,
                                      &merged.send_failures, &merged.dups_suppressed}) {
      EXPECT_EQ(set->num_nodes(), kNodes);
      EXPECT_EQ(set->total(), 0u);
    }
    for (NodeId n = 0; n < kNodes; ++n) {
      EXPECT_EQ(fabric.RetryShardForRestore(n).retransmits.num_nodes(), kNodes);
      EXPECT_EQ(fabric.RetryShardForRestore(n).dups_suppressed.total(), 0u);
    }
  }
}

TEST_F(FabricTest, RequestResponseRoundTrip) {
  TimeNs responded = -1;
  fabric_.SendRequestResponse(0, 1, MsgKind::kControl, 64, 64, Micros(10),
                              [&]() { responded = loop_.now(); });
  loop_.Run();
  const TimeNs one_way = WireTime(LinkParams::InfiniBand56G(), 64) + Nanos(1500);
  EXPECT_EQ(responded, 2 * one_way + Micros(10));
}

TEST_F(FabricTest, RequestResponseFailsOnceWhenPeerCrashesMidRequest) {
  FaultPlan plan(1);
  // The server dies while the request is on the wire (delivery would be at
  // ~1.5 us); every retransmit is lost on arrival too.
  plan.CrashNode(1, Nanos(500));
  fabric_.AttachFaultPlan(&plan);
  int responses = 0;
  int failures = 0;
  fabric_.SendRequestResponse(0, 1, MsgKind::kControl, 64, 64, Micros(10),
                              [&]() { ++responses; }, [&]() { ++failures; });
  loop_.Run();
  EXPECT_EQ(responses, 0);
  EXPECT_EQ(failures, 1);  // exactly once, never both callbacks
  EXPECT_EQ(fabric_.retry_stats().send_failures.total(), 1u);
}

TEST_F(FabricTest, RequestResponseFailsOnceWhenResponseLostPastBudget) {
  FaultPlan plan(1);
  // Request leg 0->1 is clean; the response leg 1->0 loses every copy, so the
  // server-side send burns its whole attempt budget.
  LinkFaultProfile lossy;
  lossy.drop_prob = 1.0;
  plan.SetLinkFaults(1, 0, lossy);
  fabric_.AttachFaultPlan(&plan);
  int responses = 0;
  int failures = 0;
  fabric_.SendRequestResponse(0, 1, MsgKind::kControl, 64, 64, Micros(10),
                              [&]() { ++responses; }, [&]() { ++failures; });
  loop_.Run();
  EXPECT_EQ(responses, 0);
  EXPECT_EQ(failures, 1);
  EXPECT_GT(fabric_.retry_stats().retransmits.total(), 0u);
}

TEST_F(FabricTest, MsgKindNames) {
  EXPECT_STREQ(MsgKindName(MsgKind::kIpi), "ipi");
  EXPECT_STREQ(MsgKindName(MsgKind::kDsmPageData), "dsm_page_data");
  EXPECT_STREQ(MsgKindName(MsgKind::kVcpuMigration), "vcpu_migration");
  EXPECT_STREQ(MsgKindName(MsgKind::kCount), "unknown");
}

}  // namespace
}  // namespace fragvisor
