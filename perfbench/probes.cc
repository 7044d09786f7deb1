#include "perfbench/probes.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <vector>

#include "src/cluster/placement.h"
#include "src/host/cost_model.h"
#include "src/mem/dsm.h"
#include "src/net/fabric.h"
#include "src/net/rpc.h"
#include "src/sim/check.h"
#include "src/sim/event_loop.h"
#include "src/sim/parallel_loop.h"
#include "src/sim/rng.h"

namespace fvbench {

using namespace fragvisor;  // NOLINT: the probes drive simulator layers directly

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Each probe runs this many times; the median run is reported, which keeps a
// single preempted run from moving the figure.
constexpr int kReps = 3;

template <typename Fn>
Probe MedianOf(Fn run_once) {
  std::vector<Probe> runs;
  for (int i = 0; i < kReps; ++i) {
    runs.push_back(run_once());
  }
  std::sort(runs.begin(), runs.end(),
            [](const Probe& a, const Probe& b) { return a.ns_per_op < b.ns_per_op; });
  return runs[runs.size() / 2];
}

Probe PerOp(double seconds, uint64_t ops) {
  FV_CHECK_GT(ops, 0u);
  return Probe{seconds * 1e9 / static_cast<double>(ops), ops};
}

NodeId OtherNode(Rng& rng, NodeId self, int nodes) {
  const NodeId d = static_cast<NodeId>(rng.UniformInt(0, nodes - 2));
  return d >= self ? d + 1 : d;
}

// --- EventLoop hold model ---

struct HoldState {
  EventLoop loop;
  Rng rng{1};
  TimeNs spread = 1;
  uint64_t remaining = 0;
};

struct Hold {
  HoldState* s;
  void operator()() const {
    if (s->remaining == 0) {
      return;
    }
    --s->remaining;
    s->loop.ScheduleAt(s->loop.now() + 1 + s->rng.UniformInt(0, s->spread), Hold{s});
  }
};

// --- ParallelEventLoop token ring ---

struct RingState {
  ParallelEventLoop* ploop = nullptr;
  int partitions = 0;
  uint64_t remaining = 0;
};

struct RingHop {
  RingState* s;
  int at;
  void operator()() const {
    if (s->remaining == 0) {
      return;
    }
    --s->remaining;
    const int next = (at + 1) % s->partitions;
    ParallelEventLoop& pl = *s->ploop;
    pl.ScheduleCross(at, next, pl.partition(at)->now() + pl.lookahead(), 0, RingHop{s, next});
  }
};

// --- Fabric / RpcLayer closed loops ---

struct NetState {
  EventLoop loop;
  std::unique_ptr<Fabric> fabric;
  std::unique_ptr<RpcLayer> rpc;
  Rng rng{1};
  int nodes = 0;
  uint64_t remaining = 0;
};

struct SendHop {
  NetState* s;
  NodeId at;
  void operator()() const {
    if (s->remaining == 0) {
      return;
    }
    --s->remaining;
    const NodeId dst = OtherNode(s->rng, at, s->nodes);
    s->fabric->Send(at, dst, MsgKind::kDsmReadReq, 64, SendHop{s, dst});
  }
};

struct RpcReply;

struct RpcRequest {
  NetState* s;
  NodeId client;
  void operator()() const;
};

struct RpcReply {
  NetState* s;
  NodeId server;
  NodeId client;
  void operator()() const {
    s->rpc->Call(server, client, MsgKind::kDsmPageData, 4096, RpcRequest{s, client});
  }
};

void RpcRequest::operator()() const {
  if (s->remaining == 0) {
    return;
  }
  --s->remaining;
  const NodeId server = OtherNode(s->rng, client, s->nodes);
  s->rpc->Call(client, server, MsgKind::kDsmReadReq, 64, RpcReply{s, server, client});
}

// Messages kept in flight by the network probes: enough that link queues and
// the event heap look like a busy mesh, not a single ping-pong.
constexpr int kInFlight = 64;

}  // namespace

Probe ProbeHeap(int pending, uint64_t seed) {
  return MedianOf([&]() {
    HoldState s;
    s.rng = Rng(seed);
    s.spread = 2 * static_cast<TimeNs>(pending);
    s.remaining = 2000000;
    for (int i = 0; i < pending; ++i) {
      s.loop.ScheduleAt(s.rng.UniformInt(0, s.spread), Hold{&s});
    }
    const auto t0 = Clock::now();
    const size_t dispatched = s.loop.Run();
    return PerOp(Since(t0), dispatched);
  });
}

Probe ProbeWindow(int partitions, int workers) {
  // The drain visits every (src, dst) lane, so bigger P gets fewer windows.
  const uint64_t windows = partitions <= 64 ? 4000 : 500;
  return MedianOf([&]() {
    ParallelEventLoop::Options po;
    po.num_partitions = partitions;
    po.num_threads = workers;
    po.lookahead = Micros(1);
    ParallelEventLoop ploop(po);
    RingState s{&ploop, partitions, windows};
    ploop.partition(0)->ScheduleAt(0, RingHop{&s, 0});
    const auto t0 = Clock::now();
    ploop.Run();
    return PerOp(Since(t0), ploop.stats().barriers);
  });
}

Probe ProbeSend(int nodes, uint64_t seed) {
  return MedianOf([&]() {
    NetState s;
    s.fabric = std::make_unique<Fabric>(&s.loop, nodes, LinkParams::InfiniBand56G());
    s.rng = Rng(seed);
    s.nodes = nodes;
    s.remaining = 1000000;
    const auto t0 = Clock::now();
    for (int i = 0; i < kInFlight; ++i) {
      SendHop{&s, static_cast<NodeId>(i % nodes)}();
    }
    s.loop.Run();
    return PerOp(Since(t0), s.fabric->stats().total_messages.value());
  });
}

Probe ProbeRpcCall(int nodes, uint64_t seed) {
  return MedianOf([&]() {
    NetState s;
    s.fabric = std::make_unique<Fabric>(&s.loop, nodes, LinkParams::InfiniBand56G());
    s.rpc = std::make_unique<RpcLayer>(&s.loop, s.fabric.get());
    s.rng = Rng(seed);
    s.nodes = nodes;
    s.remaining = 300000;
    const auto t0 = Clock::now();
    for (int i = 0; i < kInFlight; ++i) {
      RpcRequest{&s, static_cast<NodeId>(i % nodes)}();
    }
    s.loop.Run();
    // One operation is a request Call plus its reply Call.
    return PerOp(Since(t0), s.rpc->stats().calls.value() / 2);
  });
}

DsmProbe ProbeDsm(uint64_t seed) {
  constexpr int kNodes = 4;
  constexpr PageNum kPrivatePages = 1024;  // per node, owned with write access
  constexpr PageNum kSharedPages = 256;    // homed on node 0, contended by all
  constexpr PageNum kSharedFirst = kNodes * kPrivatePages;
  constexpr double kWriteFrac = 0.3;

  struct Bed {
    EventLoop loop;
    Fabric fabric{&loop, kNodes, LinkParams::InfiniBand56G()};
    RpcLayer rpc{&loop, &fabric};
    CostModel costs = CostModel::Default();
    std::unique_ptr<DsmEngine> dsm;
    Bed() {
      DsmEngine::Options o;
      o.home = 0;
      o.num_nodes = kNodes;
      dsm = std::make_unique<DsmEngine>(&loop, &rpc, &costs, o);
      for (int n = 0; n < kNodes; ++n) {
        dsm->SeedRange(static_cast<PageNum>(n) * kPrivatePages, kPrivatePages, n);
      }
      dsm->SeedRange(kSharedFirst, kSharedPages, 0);
    }
  };

  DsmProbe out;
  // Misses: vCPUs on the four nodes take turns on the shared pages, one access
  // in flight at a time, each run until it retires.
  out.fault = MedianOf([&]() {
    Bed bed;
    Rng rng(seed);
    constexpr uint64_t kFaults = 40000;
    uint64_t faults = 0;
    double seconds = 0;
    for (uint64_t i = 0; faults < kFaults; ++i) {
      const NodeId node = static_cast<NodeId>(i % kNodes);
      const PageNum page = kSharedFirst + static_cast<PageNum>(rng.UniformInt(0, kSharedPages - 1));
      const bool is_write = rng.Chance(kWriteFrac);
      if (bed.dsm->WouldHit(node, page, is_write)) {
        continue;
      }
      const auto t0 = Clock::now();
      if (!bed.dsm->Access(node, page, is_write, []() {})) {
        bed.loop.Run();
      }
      seconds += Since(t0);
      ++faults;
    }
    return PerOp(seconds, faults);
  });
  // Hits: every node on its own pages, which it owns with write access.
  out.hit = MedianOf([&]() {
    Bed bed;
    Rng rng(seed);
    constexpr size_t kHits = 2000000;
    struct Ref {
      NodeId node;
      PageNum page;
      bool is_write;
    };
    std::vector<Ref> refs(kHits);
    for (size_t i = 0; i < kHits; ++i) {
      const NodeId node = static_cast<NodeId>(i % kNodes);
      refs[i] = Ref{node,
                    static_cast<PageNum>(node) * kPrivatePages +
                        static_cast<PageNum>(rng.UniformInt(0, kPrivatePages - 1)),
                    rng.Chance(kWriteFrac)};
    }
    uint64_t hits = 0;
    const auto t0 = Clock::now();
    for (const Ref& r : refs) {
      hits += bed.dsm->Access(r.node, r.page, r.is_write, nullptr) ? 1 : 0;
    }
    const double seconds = Since(t0);
    FV_CHECK_EQ(hits, kHits);
    return PerOp(seconds, hits);
  });
  return out;
}

Probe ProbePlace(uint64_t seed) {
  constexpr int kNodes = 256;
  constexpr int kSlots = 4;
  constexpr uint64_t kGiB = 1ull << 30;
  constexpr uint64_t kNodeMem = 32 * kGiB;
  constexpr int kViews = 64;
  constexpr uint64_t kCalls = 20000;
  return MedianOf([&]() {
    const std::unique_ptr<PlacementPolicy> policy = MakePlacementPolicy("fragbff");
    FV_CHECK(policy != nullptr);
    Rng rng(seed);
    // Partly occupied clusters, as the orchestrator sees them mid-trace.
    std::vector<std::vector<NodeCapacityView>> views(kViews);
    for (std::vector<NodeCapacityView>& view : views) {
      for (NodeId n = 0; n < kNodes; ++n) {
        const int free = static_cast<int>(rng.UniformInt(0, kSlots));
        view.push_back(NodeCapacityView{n, free, kNodeMem / kSlots * static_cast<uint64_t>(free),
                                        kSlots, kNodeMem, kSlots - free});
      }
    }
    std::vector<int> sizes(kCalls);
    for (int& v : sizes) {
      v = static_cast<int>(rng.UniformInt(1, 8));
    }
    uint64_t placed_slices = 0;
    const auto t0 = Clock::now();
    for (uint64_t i = 0; i < kCalls; ++i) {
      placed_slices += policy->Place(views[i % kViews], sizes[i], kGiB).size();
    }
    const double seconds = Since(t0);
    FV_CHECK_GT(placed_slices, 0u);
    return PerOp(seconds, kCalls);
  });
}

}  // namespace fvbench
