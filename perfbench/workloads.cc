#include "perfbench/workloads.h"

#include <chrono>
#include <cstdio>
#include <memory>

#include "src/cluster/arrival.h"
#include "src/cluster/marketplace.h"
#include "src/cluster/placement.h"
#include "src/core/aggregate_vm.h"
#include "src/host/lease_manager.h"
#include "src/host/node.h"
#include "src/net/fabric.h"
#include "src/net/rpc.h"
#include "src/sim/parallel_loop.h"
#include "src/sim/rng.h"
#include "src/workload/dsmstorm.h"
#include "src/workload/omp.h"

namespace fvbench {

using namespace fragvisor;  // NOLINT: the benchmark drives the whole simulator

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// The OMP kernels fig01 runs with medium-to-high sharing.
constexpr const char* kOmpKernels[] = {"CG-OMP", "MG-OMP", "FT-OMP"};
constexpr int kOmpNodes = 4;  // the paper's testbed size

constexpr int kStormNodes = 64;
constexpr int kClusterNodes = 128;
constexpr int kClusterVms = 400;

StormOptions StormConfig(uint64_t seed) {
  StormOptions so;
  so.num_nodes = kStormNodes;
  so.streams_per_node = 8;
  so.accesses_per_stream = 1000;
  so.cache_slots = 16;
  so.remote_frac = 0.7;
  so.write_frac = 0.3;
  so.seed = seed;
  return so;
}

MarketplaceOptions ClusterConfig(uint64_t seed) {
  MarketplaceOptions mo;
  mo.num_nodes = kClusterNodes;
  mo.vcpus_per_node = 4;
  mo.trace.vms = kClusterVms;
  mo.trace.kind = ArrivalKind::kFlash;
  mo.trace.requests_per_vcpu = 500;
  mo.trace.seed = seed;
  mo.policy = "fragbff";
  mo.reclamation = true;
  return mo;
}

// One aggregate VM on its own 4-node cluster, built the way MakeTestBed
// builds a FragVisor setup, with one OmpThreadStream per vCPU, booted.
struct OmpBed {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<AggregateVm> vm;
};

OmpBed BuildOmpBed(const OmpProfile& profile, uint64_t seed, int cluster_threads, SpanLog* spans,
                   uint64_t parent, uint64_t run) {
  OmpBed bed;
  {
    ScopedSpan s(spans, "core.Cluster", parent, run);
    Cluster::Config cc;
    cc.num_nodes = kOmpNodes;
    cc.pcpus_per_node = 8;
    cc.threads = cluster_threads;
    bed.cluster = std::make_unique<Cluster>(cc);
  }
  {
    ScopedSpan s(spans, "core.AggregateVm", parent, run);
    AggregateVmConfig config;
    config.platform = Platform::kFragVisor;
    config.placement = DistributedPlacement(kOmpNodes);
    bed.vm = std::make_unique<AggregateVm>(bed.cluster.get(), config);
  }
  {
    ScopedSpan s(spans, "workload.OmpThreadStream", parent, run);
    const OmpSharedRegion region = OmpSharedRegion::Create(*bed.vm, profile.shared_pages);
    for (int v = 0; v < kOmpNodes; ++v) {
      bed.vm->SetWorkload(v, std::make_unique<OmpThreadStream>(
                                 bed.vm.get(), v, profile, region,
                                 seed * 1000 + static_cast<uint64_t>(v)));
    }
  }
  {
    ScopedSpan s(spans, "core.AggregateVm.Boot", parent, run);
    bed.vm->Boot();
  }
  return bed;
}

void AddNetCounts(const FabricStats& fabric, const RpcStats& rpc, const RetryStats& retry,
                  std::map<std::string, double>* counts) {
  (*counts)["net.messages"] += static_cast<double>(fabric.total_messages.value());
  (*counts)["net.bytes"] += static_cast<double>(fabric.total_bytes.value());
  (*counts)["net.rpc_calls"] += static_cast<double>(rpc.calls.value());
  (*counts)["net.rpc_notifies"] += static_cast<double>(rpc.notifies.value());
  (*counts)["net.multicast_rounds"] += static_cast<double>(rpc.multicast_rounds.value());
  (*counts)["net.retransmits"] += static_cast<double>(retry.retransmits.total());
  (*counts)["net.send_failures"] += static_cast<double>(retry.send_failures.total());
}

void AddCoreCounts(const ParallelEventLoop::RunStats& core, std::map<std::string, double>* counts) {
  (*counts)["sim.windows"] = static_cast<double>(core.barriers);
  (*counts)["sim.cross_events"] = static_cast<double>(core.mailbox_events);
  uint64_t max = 0;
  uint64_t sum = 0;
  for (const uint64_t e : core.events_per_partition) {
    max = e > max ? e : max;
    sum += e;
  }
  if (sum > 0) {
    (*counts)["sim.partition_skew"] =
        static_cast<double>(max) * static_cast<double>(core.events_per_partition.size()) /
        static_cast<double>(sum);
  }
}

// Records a failed check when `got` differs from `want`.
void Expect(const char* what, uint64_t got, uint64_t want, std::vector<std::string>* errors) {
  if (got != want) {
    errors->push_back(std::string(what) + " = " + std::to_string(got) + ", expected " +
                      std::to_string(want));
  }
}

RunResult RunAvmOmp(uint64_t seed, int threads, SpanLog* spans, uint64_t parent, uint64_t run) {
  RunResult r;
  // One worker is the legacy serial EventLoop; otherwise the cluster's clock
  // is hosted on the ParallelEventLoop, which clamps the workers to the VM's
  // single coherence-domain partition.
  const int cluster_threads = threads <= 1 ? 0 : threads;
  double fault_latency_sum_ns = 0;
  double fault_latency_samples = 0;
  for (const char* kernel : kOmpKernels) {
    const OmpProfile& profile = OmpByName(kernel);
    OmpBed bed = BuildOmpBed(profile, seed, cluster_threads, spans, parent, run);
    const auto t0 = Clock::now();
    size_t events = 0;
    {
      // The body of RunUntilVmDone, called directly for its event count.
      ScopedSpan s(spans, "sim.EventLoop.RunWhile", parent, run);
      const AggregateVm& vm = *bed.vm;
      events = bed.cluster->loop().RunWhile([&vm]() { return !vm.AllFinished(); }, Seconds(600));
    }
    r.wall_s += Since(t0);
    if (!bed.vm->AllFinished()) {
      r.errors.push_back(std::string(kernel) + " did not finish within 600 simulated s");
    }
    const DsmStats& d = bed.vm->dsm().stats();
    r.attempted += d.total_faults();
    r.failed += d.write_aborts.total() + d.txn_absorbed.total();
    r.counts["sim.events"] += static_cast<double>(events);
    r.counts["mem.read_faults"] += static_cast<double>(d.read_faults.value());
    r.counts["mem.write_faults"] += static_cast<double>(d.write_faults.value());
    r.counts["mem.invalidations"] += static_cast<double>(d.invalidations.value());
    r.counts["mem.page_transfers"] += static_cast<double>(d.page_transfers.value());
    const double latency_samples = static_cast<double>(d.fault_latency_ns.count());
    fault_latency_sum_ns += d.fault_latency_ns.mean() * latency_samples;
    fault_latency_samples += latency_samples;
    const FabricStats fabric = bed.cluster->fabric().MergedStats();
    AddNetCounts(fabric, bed.cluster->rpc().MergedStats(), bed.cluster->fabric().MergedRetryStats(),
                 &r.counts);

    char latency[48];
    std::snprintf(latency, sizeof(latency), "%.17g", d.fault_latency_ns.mean());
    const auto kv = [&r](const char* key, uint64_t value) {
      r.report += std::string(" ") + key + "=" + std::to_string(value);
    };
    r.report += kernel;
    kv("finish_ns", static_cast<uint64_t>(bed.cluster->loop().now()));
    kv("events", events);
    kv("read_faults", d.read_faults.value());
    kv("write_faults", d.write_faults.value());
    kv("invalidations", d.invalidations.value());
    kv("page_transfers", d.page_transfers.value());
    kv("protocol_messages", d.protocol_messages.value());
    kv("protocol_bytes", d.protocol_bytes.value());
    kv("fabric_messages", fabric.total_messages.value());
    kv("fabric_bytes", fabric.total_bytes.value());
    r.report += std::string(" fault_latency_mean_ns=") + latency + "\n";
  }
  if (fault_latency_samples > 0) {
    r.counts["mem.sim_fault_latency_us"] = fault_latency_sum_ns / fault_latency_samples / 1e3;
  }
  return r;
}

RunResult RunStorm64(uint64_t seed, int threads, SpanLog* spans, uint64_t parent, uint64_t run) {
  RunResult r;
  StormResult s;
  {
    ScopedSpan span(spans, "workload.RunStorm", parent, run);
    const auto t0 = Clock::now();
    s = RunStorm(StormConfig(seed), threads);
    r.wall_s = Since(t0);
  }
  {
    ScopedSpan span(spans, "workload.StormReport", parent, run);
    r.report = StormReport(s);
  }
  r.digest = s.state_digest;
  const StormCounters& t = s.totals;
  Expect("storm served_reads", t.served_reads, t.remote_reads, &r.errors);
  Expect("storm served_writes", t.served_writes, t.remote_writes, &r.errors);
  Expect("storm failures", t.failures, 0, &r.errors);
  r.attempted = t.remote_reads + t.remote_writes;
  r.failed = t.failures;
  r.counts["sim.events"] = static_cast<double>(s.events_dispatched);
  AddCoreCounts(s.core, &r.counts);
  AddNetCounts(s.fabric, s.rpc, s.retry, &r.counts);
  r.counts["storm.remote_reads"] = static_cast<double>(t.remote_reads);
  r.counts["storm.remote_writes"] = static_cast<double>(t.remote_writes);
  r.counts["storm.invalidations"] = static_cast<double>(t.invalidations);
  r.counts["storm.cache_hit_ratio"] =
      static_cast<double>(t.cache_hits) / static_cast<double>(t.cache_hits + t.remote_reads);
  return r;
}

RunResult RunCluster128(uint64_t seed, int threads, SpanLog* spans, uint64_t parent,
                        uint64_t run) {
  RunResult r;
  MarketplaceResult m;
  {
    ScopedSpan span(spans, "cluster.RunMarketplace", parent, run);
    const auto t0 = Clock::now();
    m = RunMarketplace(ClusterConfig(seed), threads);
    r.wall_s = Since(t0);
  }
  {
    ScopedSpan span(spans, "cluster.MarketplaceReport", parent, run);
    r.report = MarketplaceReport(m);
  }
  r.digest = m.state_digest;
  Expect("cluster vms_completed", m.vms_completed, kClusterVms, &r.errors);
  Expect("cluster vms_failed", m.vms_failed, 0, &r.errors);
  Expect("cluster ledger_residue_slots", m.ledger_residue_slots, 0, &r.errors);
  // Lease-book conservation at the final drain: every entry that entered the
  // book left it exactly once.
  const LeaseStats& l = m.lease;
  const uint64_t entered = l.requested.value() + l.restored.value();
  const uint64_t left = l.expired.value() + l.revoked.value() + l.released.value() +
                        l.lost.value() + l.dropped.value() + l.orphaned.value() +
                        l.failover_cleared.value();
  Expect("cluster lease-book entries left", left, entered, &r.errors);
  const MarketplaceNodeCounters& t = m.totals;
  r.attempted = t.local_requests + t.remote_requests + kClusterVms;
  r.failed = t.request_failures + m.vms_failed;
  r.counts["sim.events"] = static_cast<double>(m.events_dispatched);
  AddCoreCounts(m.core, &r.counts);
  AddNetCounts(m.fabric, m.rpc, m.retry, &r.counts);
  r.counts["cluster.placed_aggregate"] = static_cast<double>(m.placed_aggregate);
  r.counts["cluster.delayed"] = static_cast<double>(m.delayed);
  r.counts["cluster.reclaims"] = static_cast<double>(m.reclaims);
  r.counts["cluster.remote_requests"] = static_cast<double>(t.remote_requests);
  r.counts["cluster.leases_granted"] = static_cast<double>(l.granted.value());
  r.counts["cluster.leases_revoked"] = static_cast<double>(l.revoked.value());
  r.counts["cluster.sim_req_p99_us"] = m.latency.Percentile(99) / 1e3;
  r.counts["cluster.placements"] = static_cast<double>(m.placed_single + m.placed_aggregate);
  return r;
}

// Keeps the compiler from eliding a set-up structure that nothing reads.
void Keep(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// The engine, Fabric (with per-link latency jitter) and RpcLayer that
// RunStorm and RunMarketplace build on one worker before their first event.
struct ParallelFabric {
  std::unique_ptr<ParallelEventLoop> ploop;
  std::unique_ptr<Fabric> fabric;
  std::unique_ptr<RpcLayer> rpc;
};

ParallelFabric BuildParallelFabric(int nodes, const LinkParams& link, const TopologyConfig& topo,
                                   TimeNs jitter_ns, uint64_t seed, const RpcConfig& rpc) {
  ParallelFabric pf;
  ParallelEventLoop::Options po;
  po.num_partitions = nodes;
  po.num_threads = 1;
  po.lookahead = Fabric::MinEffectiveLatency(topo, link, nodes);
  pf.ploop = std::make_unique<ParallelEventLoop>(po);
  pf.fabric = std::make_unique<Fabric>(pf.ploop.get(), nodes, link, topo);
  for (NodeId s = 0; s < nodes; ++s) {
    for (NodeId d = 0; d < nodes; ++d) {
      if (s == d) {
        continue;
      }
      LinkParams lp = link;
      const uint64_t key =
          SplitMix(seed ^ (static_cast<uint64_t>(s) << 32 | static_cast<uint32_t>(d)));
      lp.latency += static_cast<TimeNs>(key % static_cast<uint64_t>(jitter_ns + 1));
      pf.fabric->SetLinkParams(s, d, lp);
    }
  }
  pf.rpc = std::make_unique<RpcLayer>(nullptr, pf.fabric.get(), rpc);
  return pf;
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  for (const Workload w : {Workload::kAvmOmp, Workload::kStorm64, Workload::kCluster128Flash}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kAvmOmp:
      return "avm-omp";
    case Workload::kStorm64:
      return "storm64";
    case Workload::kCluster128Flash:
      return "cluster128-flash";
  }
  return "?";
}

int WorkloadNodes(Workload w) {
  switch (w) {
    case Workload::kAvmOmp:
      return kOmpNodes;
    case Workload::kStorm64:
      return kStormNodes;
    case Workload::kCluster128Flash:
      return kClusterNodes;
  }
  return 0;
}

RunResult RunWorkload(Workload w, uint64_t seed, int threads, SpanLog* spans, uint64_t parent,
                      uint64_t run) {
  switch (w) {
    case Workload::kAvmOmp:
      return RunAvmOmp(seed, threads, spans, parent, run);
    case Workload::kStorm64:
      return RunStorm64(seed, threads, spans, parent, run);
    case Workload::kCluster128Flash:
      return RunCluster128(seed, threads, spans, parent, run);
  }
  return RunResult{};
}

double SetupOnce(Workload w, uint64_t seed) {
  const auto t0 = Clock::now();
  double elapsed = 0;
  switch (w) {
    case Workload::kAvmOmp: {
      std::vector<OmpBed> beds;
      for (const char* kernel : kOmpKernels) {
        beds.push_back(BuildOmpBed(OmpByName(kernel), seed, 0, nullptr, 0, 0));
      }
      elapsed = Since(t0);
      break;
    }
    case Workload::kStorm64: {
      const StormOptions so = StormConfig(seed);
      const ParallelFabric pf = BuildParallelFabric(so.num_nodes, so.link, so.topology,
                                                    so.latency_jitter_ns, so.seed, RpcConfig{});
      // The storm's per-node state: an Rng per stream, the direct-mapped
      // cache, the home-side version and last-reader tables, three handlers.
      struct StreamProxy {
        Rng rng{0};
        int remaining = 0;
      };
      struct NodeProxy {
        std::vector<StreamProxy> streams;
        std::vector<int64_t> cache;
        std::vector<uint64_t> version;
        std::vector<int32_t> last_reader;
      };
      std::vector<NodeProxy> nodes(static_cast<size_t>(so.num_nodes));
      const auto streams = static_cast<uint64_t>(so.streams_per_node);
      for (NodeId n = 0; n < so.num_nodes; ++n) {
        NodeProxy& np = nodes[static_cast<size_t>(n)];
        np.streams.resize(streams);
        for (uint64_t st = 0; st < streams; ++st) {
          np.streams[st].rng = Rng(SplitMix(so.seed + 1 + static_cast<uint64_t>(n) * streams + st));
          np.streams[st].remaining = so.accesses_per_stream;
        }
        np.cache.assign(static_cast<size_t>(so.cache_slots), -1);
        np.version.assign(static_cast<size_t>(so.pages_per_node), 0);
        np.last_reader.assign(static_cast<size_t>(so.pages_per_node), -1);
        for (const MsgKind kind :
             {MsgKind::kDsmReadReq, MsgKind::kDsmWriteReq, MsgKind::kDsmInvalidate}) {
          pf.rpc->Bind(n, kind, [](const RpcLayer::Inbound&) {});
        }
      }
      Keep(nodes.data());
      elapsed = Since(t0);
      break;
    }
    case Workload::kCluster128Flash: {
      const MarketplaceOptions mo = ClusterConfig(seed);
      const std::vector<VmArrival> trace = GenerateArrivalTrace(mo.trace);
      const std::unique_ptr<PlacementPolicy> policy = MakePlacementPolicy(mo.policy);
      const ParallelFabric pf = BuildParallelFabric(
          mo.num_nodes, mo.link, mo.topology, mo.latency_jitter_ns, mo.trace.seed, RpcConfig{});
      LeaseManagerConfig lc;
      lc.manual_clock = true;
      const LeaseManager leases(pf.rpc.get(), /*home=*/0, lc);
      // The marketplace's ledgers, VM table (its trace-derived shape) and
      // believed-up vector, then its five handlers per node.
      std::vector<TenantLedger> ledgers(static_cast<size_t>(mo.num_nodes));
      for (TenantLedger& l : ledgers) {
        l.Init(mo.mem_per_node, mo.vcpus_per_node);
      }
      struct VmProxy {
        int vcpus = 0;
        uint64_t mem_per_slot = 0;
        uint64_t requests_per_stream = 0;
        double remote_frac = 0;
      };
      std::vector<VmProxy> vms(trace.size());
      for (const VmArrival& va : trace) {
        VmProxy& v = vms[va.vm - 1];
        v.vcpus = va.vcpus;
        v.mem_per_slot = va.mem_bytes / static_cast<uint64_t>(va.vcpus);
        v.requests_per_stream = va.requests / static_cast<uint64_t>(va.vcpus);
        v.remote_frac = va.remote_frac;
      }
      const std::vector<uint8_t> believed_up(static_cast<size_t>(mo.num_nodes), 1);
      for (NodeId n = 0; n < mo.num_nodes; ++n) {
        for (const MsgKind kind : {MsgKind::kControl, MsgKind::kVcpuMigration,
                                   MsgKind::kCheckpointData, MsgKind::kDsmReadReq,
                                   MsgKind::kDsmPageData}) {
          pf.rpc->Bind(n, kind, [](const RpcLayer::Inbound&) {});
        }
      }
      Keep(ledgers.data());
      Keep(vms.data());
      Keep(believed_up.data());
      elapsed = Since(t0);
      break;
    }
  }
  return elapsed;
}

uint64_t PinnedDigest(Workload w, uint64_t seed) {
  // Printed by `fvsim storm --nodes 64 --streams 8 --accesses 1000 --threads 1
  // --seed S` and `fvsim cluster --nodes 128 --vcpus-per-node 4 --vms 400
  // --trace flash --requests 500 --threads 1 --seed S` (both digests are
  // worker-count invariant). Seed 1 is the default, 1001 the held-out seed.
  struct Pin {
    uint64_t seed;
    uint64_t storm;
    uint64_t cluster;
  };
  static constexpr Pin kPins[] = {
      {1, 0xe9b996b234619389ull, 0xc23f3e024d10bc21ull},
      {2, 0xaed28cbf7a42e3aaull, 0x984ba15cbfdaf54dull},
      {3, 0xc7703a0045a4ec04ull, 0x3e5f4d66852b00c2ull},
      {4, 0x95cbed0de511c7e3ull, 0x0c46feea63852c91ull},
      {5, 0x64fdd09f006fbcd6ull, 0x3f9880ff35cde0faull},
      {6, 0x520c25e273a69596ull, 0x70683f70b1169ee1ull},
      {7, 0x97a508918cb8a171ull, 0xad3ce2f16be49b8full},
      {8, 0xb271818aabefc9aaull, 0xd1b6898d280b4937ull},
      {9, 0xe0619c5ce8cbd21cull, 0xf1ec4faeab4aaf0eull},
      {10, 0x29df7348e4618224ull, 0x7d25b65dfc60ea4dull},
      {1001, 0xdff0ef2bb4542eb9ull, 0x9ad34bf81f5cbad1ull},
  };
  for (const Pin& p : kPins) {
    if (p.seed == seed) {
      return w == Workload::kStorm64 ? p.storm : w == Workload::kCluster128Flash ? p.cluster : 0;
    }
  }
  return 0;
}

}  // namespace fvbench
