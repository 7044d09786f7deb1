// Transport fast-path sensitivity study: one-sided RDMA-read page pulls,
// compressed / delta-diffed page transfers, and the two-tier fat-tree fabric.
//
// Part A drives three protocol-level microworkloads (shaped like the
// ablation_dsm_fastpath set) through the DSM under five transport configs:
//
//   baseline     no fast paths;
//   hints        owner hints alone (the two-sided owner-served path);
//   hints+rdma   owner hints plus --dsm-rdma-read (one-sided owner pulls —
//                the remote-CPU handler cost disappears from the read path);
//   compress     --dsm-compress alone (smaller wire transfers, same hops);
//   all          everything on.
//
// Fast paths may only change timing and message flow, never results: every
// config must complete the same scripts with the same order-independent
// checksum and pass CheckInvariants.
//
// Part B sweeps a fat-tree coherence storm across core oversubscription
// ratios {1, 2, 4, 8} at two edge bandwidths. More oversubscription can only
// slow the cross-pod traffic down, so storm finish time must be monotonically
// non-decreasing in the ratio (and never beat the uniform mesh).
//
// Results go to BENCH_fabric_transport.json; exit status is non-zero when a
// config changes workload results or an expected effect fails to show.
//
//   fabric_transport [--quick] [--out PATH]

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/host/cost_model.h"
#include "src/mem/dsm.h"
#include "src/net/fabric.h"
#include "src/net/rpc.h"
#include "src/sim/event_loop.h"
#include "src/workload/dsmstorm.h"

namespace fragvisor {
namespace {

constexpr int kNodes = 4;

struct AccessStep {
  PageNum page = 0;
  bool is_write = false;
};

struct Script {
  NodeId node = 0;
  TimeNs pace = 0;
  std::vector<AccessStep> accesses;
};

struct DriveResult {
  uint64_t completed = 0;
  uint64_t checksum = 0;  // order-independent: summed per-access mix
};

uint64_t MixStep(NodeId node, PageNum page, size_t k) {
  return static_cast<uint64_t>(node) * 1315423911ull + page * 2654435761ull +
         static_cast<uint64_t>(k) * 97531ull;
}

// Runs every script to completion as concurrent closed loops over the DSM.
DriveResult Drive(EventLoop* loop, DsmEngine* dsm, std::vector<Script> scripts) {
  DriveResult res;
  auto scr = std::make_shared<std::vector<Script>>(std::move(scripts));
  auto cursors = std::make_shared<std::vector<size_t>>(scr->size(), 0);
  auto pumps = std::make_shared<std::vector<std::function<void()>>>(scr->size());
  for (size_t i = 0; i < scr->size(); ++i) {
    (*pumps)[i] = [loop, dsm, &res, scr, cursors, pumps, i]() {
      const Script& sc = (*scr)[i];
      while (true) {
        const size_t k = (*cursors)[i];
        if (k >= sc.accesses.size()) {
          return;
        }
        const AccessStep a = sc.accesses[k];
        const NodeId node = sc.node;
        const TimeNs pace = sc.pace;
        const bool hit = dsm->Access(
            node, a.page, a.is_write, [loop, &res, cursors, pumps, i, node, a, k, pace]() {
              ++res.completed;
              res.checksum += MixStep(node, a.page, k);
              (*cursors)[i] = k + 1;
              if (pace > 0) {
                loop->ScheduleAfter(pace, [pumps, i]() { (*pumps)[i](); });
              } else {
                (*pumps)[i]();
              }
            });
        if (!hit) {
          return;  // fault in flight; its completion callback resumes the loop
        }
        ++res.completed;
        res.checksum += MixStep(node, a.page, k);
        (*cursors)[i] = k + 1;
        if (pace > 0) {
          loop->ScheduleAfter(pace, [pumps, i]() { (*pumps)[i](); });
          return;
        }
      }
    };
  }
  for (size_t i = 0; i < pumps->size(); ++i) {
    (*pumps)[i]();
  }
  loop->Run();
  return res;
}

struct Config {
  const char* name;
  bool hints = false;
  bool rdma = false;
  bool compress = false;
};

constexpr Config kConfigs[] = {
    {"baseline", false, false, false},
    {"hints", true, false, false},
    {"hints+rdma", true, true, false},
    {"compress", false, false, true},
    {"all", true, true, true},
};

struct Workload {
  const char* name;
  std::function<void(DsmEngine*, bool quick)> setup;
  std::function<std::vector<Script>(bool quick)> scripts;
};

std::vector<AccessStep> SequentialReads(PageNum start, uint64_t count, int passes) {
  std::vector<AccessStep> v;
  v.reserve(count * static_cast<uint64_t>(passes));
  for (int p = 0; p < passes; ++p) {
    for (uint64_t i = 0; i < count; ++i) {
      v.push_back({start + i, false});
    }
  }
  return v;
}

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> w;

  // Sequential scans of disjoint home-owned ranges: every page is a fresh
  // read fault, so compression should shrink nearly every reply body.
  w.push_back(Workload{
      "streaming",
      [](DsmEngine* dsm, bool) { dsm->SeedRange(0, 3 * 1024, 0); },
      [](bool quick) {
        const uint64_t span = quick ? 256 : 1024;
        std::vector<Script> s;
        for (NodeId n = 1; n < kNodes; ++n) {
          s.push_back({n, 0, SequentialReads(static_cast<PageNum>(n - 1) * 1024, span, 1)});
        }
        return s;
      }});

  // A page set owned off-home, read repeatedly by three nodes with a rare
  // writer: re-read faults after invalidation are the delta-diff bullseye.
  w.push_back(Workload{
      "read_mostly",
      [](DsmEngine* dsm, bool quick) {
        const uint64_t span = quick ? 512 : 2048;
        dsm->SeedRange(0, span, 1);
      },
      [](bool quick) {
        const uint64_t span = quick ? 512 : 2048;
        const int passes = 2;
        std::vector<Script> s;
        for (const NodeId reader : {NodeId{0}, NodeId{2}, NodeId{3}}) {
          s.push_back({reader, Micros(1), SequentialReads(0, span, passes)});
        }
        Script writer{1, Micros(100), {}};
        for (int p = 0; p < passes; ++p) {
          for (PageNum page = 0; page < span; page += 32) {
            writer.accesses.push_back({page, true});
          }
        }
        s.push_back(std::move(writer));
        return s;
      }});

  // Node 1 stably owns and periodically rewrites a range that nodes 2 and 3
  // keep re-reading: with hints on, every re-read fault is owner-served, so
  // this is where the one-sided read pays off. The wide pacing keeps the
  // owner quiescent between writes — a read that lands mid-write-transaction
  // is gated on the owner's lock, not the handler cost, and would mask the
  // one-sided saving.
  w.push_back(Workload{
      "stable_owner",
      [](DsmEngine* dsm, bool) { dsm->SeedRange(0, 256, 1); },
      [](bool quick) {
        const uint64_t span = quick ? 64 : 256;
        const int passes = 4;
        std::vector<Script> s;
        Script writer{1, Micros(400), {}};
        for (int p = 0; p < passes; ++p) {
          for (PageNum page = 0; page < span; ++page) {
            writer.accesses.push_back({page, true});
          }
        }
        s.push_back(std::move(writer));
        for (const NodeId reader : {NodeId{2}, NodeId{3}}) {
          s.push_back({reader, Micros(400), SequentialReads(0, span, passes)});
        }
        return s;
      }});

  return w;
}

struct RunMetrics {
  uint64_t completed = 0;
  uint64_t expected = 0;
  uint64_t checksum = 0;
  uint64_t pages_checked = 0;
  uint64_t read_faults = 0;
  uint64_t write_faults = 0;
  uint64_t protocol_messages = 0;
  uint64_t protocol_bytes = 0;
  uint64_t hint_hits = 0;
  uint64_t rdma_reads = 0;
  uint64_t compressed_transfers = 0;
  uint64_t delta_transfers = 0;
  uint64_t transfer_bytes_saved = 0;
  double fault_latency_mean_us = 0.0;
  double sim_ms = 0.0;
};

RunMetrics RunOne(const Workload& workload, const Config& config, bool quick) {
  EventLoop loop;
  Fabric fabric(&loop, kNodes, LinkParams::InfiniBand56G());
  const CostModel costs = CostModel::Default();
  RpcLayer rpc(&loop, &fabric);
  DsmEngine::Options opts;
  opts.home = 0;
  opts.num_nodes = kNodes;
  opts.owner_hints = config.hints;
  opts.rdma_read = config.rdma;
  opts.compress = config.compress;
  DsmEngine dsm(&loop, &rpc, &costs, opts);
  workload.setup(&dsm, quick);

  std::vector<Script> scripts = workload.scripts(quick);
  RunMetrics m;
  for (const Script& s : scripts) {
    m.expected += s.accesses.size();
  }
  const DriveResult drive = Drive(&loop, &dsm, std::move(scripts));
  m.completed = drive.completed;
  m.checksum = drive.checksum;
  m.pages_checked = dsm.CheckInvariants();  // FV_CHECK-aborts on violation

  const DsmStats& s = dsm.stats();
  m.read_faults = s.read_faults.value();
  m.write_faults = s.write_faults.value();
  m.protocol_messages = s.protocol_messages.value();
  m.protocol_bytes = s.protocol_bytes.value();
  m.hint_hits = s.hint_hits.value();
  m.rdma_reads = s.rdma_reads.value();
  m.compressed_transfers = s.compressed_transfers.value();
  m.delta_transfers = s.delta_transfers.value();
  m.transfer_bytes_saved = s.transfer_bytes_saved.value();
  m.fault_latency_mean_us = s.fault_latency_ns.mean() / 1000.0;
  m.sim_ms = ToMillis(loop.now());
  return m;
}

// --- Part B: fat-tree oversubscription sweep ------------------------------

struct SweepPoint {
  double gbps = 0.0;
  double oversub = 0.0;  // 0 = uniform mesh reference point
  double finish_ms = 0.0;
  uint64_t remote_reads = 0;
  uint64_t remote_writes = 0;
};

SweepPoint RunSweepPoint(double gbps, double oversub, bool quick) {
  StormOptions so;
  so.num_nodes = 16;
  so.streams_per_node = quick ? 2 : 4;
  so.accesses_per_stream = quick ? 60 : 200;
  so.pages_per_node = 64;
  so.remote_frac = 0.8;
  so.link = LinkParams::InfiniBand56G();
  so.link.bytes_per_second = gbps * 1e9 / 8.0;
  if (oversub > 0.0) {
    so.topology = TopologyConfig::FatTree(/*pod_size=*/4, oversub);
  }
  const StormResult r = RunStorm(so, /*threads=*/1);
  SweepPoint p;
  p.gbps = gbps;
  p.oversub = oversub;
  p.finish_ms = ToMillis(r.finish_time);
  p.remote_reads = r.totals.remote_reads;
  p.remote_writes = r.totals.remote_writes;
  return p;
}

int Main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_fabric_transport.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: fabric_transport [--quick] [--out PATH]\n");
      return 2;
    }
  }

  int failures = 0;
  auto fail = [&failures](const char* what) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  };

  // --- Part A: transport config ablation ---
  const std::vector<Workload> workloads = MakeWorkloads();
  constexpr size_t kNumConfigs = sizeof(kConfigs) / sizeof(kConfigs[0]);
  std::vector<std::vector<RunMetrics>> results(workloads.size());

  for (size_t w = 0; w < workloads.size(); ++w) {
    std::printf("%s:\n", workloads[w].name);
    std::printf("  %-11s %9s %9s %11s %8s %7s %7s %7s %11s %8s\n", "config", "rd_fault",
                "msgs", "bytes", "lat_us", "rdma", "zipped", "delta", "saved_B", "sim_ms");
    for (size_t c = 0; c < kNumConfigs; ++c) {
      const RunMetrics m = RunOne(workloads[w], kConfigs[c], quick);
      results[w].push_back(m);
      std::printf("  %-11s %9llu %9llu %11llu %8.2f %7llu %7llu %7llu %11llu %8.2f\n",
                  kConfigs[c].name, static_cast<unsigned long long>(m.read_faults),
                  static_cast<unsigned long long>(m.protocol_messages),
                  static_cast<unsigned long long>(m.protocol_bytes), m.fault_latency_mean_us,
                  static_cast<unsigned long long>(m.rdma_reads),
                  static_cast<unsigned long long>(m.compressed_transfers),
                  static_cast<unsigned long long>(m.delta_transfers),
                  static_cast<unsigned long long>(m.transfer_bytes_saved), m.sim_ms);
      if (m.completed != m.expected) {
        fail("a config did not complete its full access script");
      }
      if (m.pages_checked == 0) {
        fail("CheckInvariants saw an empty directory");
      }
      if (m.checksum != results[w][0].checksum) {
        fail("workload result checksum diverged from baseline");
      }
    }
  }

  // Expected-effect gates.
  const size_t iw_stream = 0, iw_rm = 1, iw_stable = 2;
  const size_t ic_base = 0, ic_hints = 1, ic_rdma = 2, ic_comp = 3, ic_all = 4;
  {
    // One-sided reads must fire on the owner-served path and shave the remote
    // handler off the mean read-fault latency relative to two-sided hints.
    const RunMetrics& hints = results[iw_stable][ic_hints];
    const RunMetrics& rdma = results[iw_stable][ic_rdma];
    if (rdma.rdma_reads == 0) {
      fail("rdma: no one-sided reads issued on stable_owner");
    }
    if (!(rdma.fault_latency_mean_us < hints.fault_latency_mean_us)) {
      fail("rdma: stable_owner mean fault latency did not drop vs hints");
    }
  }
  {
    // Compression must shrink the wire bytes on the page-heavy workloads.
    for (const size_t iw : {iw_stream, iw_rm}) {
      const RunMetrics& base = results[iw][ic_base];
      const RunMetrics& comp = results[iw][ic_comp];
      if (!(comp.protocol_bytes < base.protocol_bytes)) {
        fail("compress: protocol bytes did not drop");
      }
      if (comp.compressed_transfers == 0) {
        fail("compress: no transfer went out compressed");
      }
      if (comp.transfer_bytes_saved == 0) {
        fail("compress: bytes-saved counter stayed zero");
      }
    }
    // Repeated invalidate-refetch cycles must hit the delta path. (The first
    // refetch after a write re-ships the compressed body — version 0 is the
    // never-received sentinel — so only stable_owner's four passes cycle
    // often enough to exercise deltas.)
    if (results[iw_stable][ic_comp].delta_transfers == 0) {
      fail("compress: stable_owner invalidate-refetch cycles produced no delta transfers");
    }
    // The combined config keeps both effects.
    if (results[iw_stable][ic_all].rdma_reads == 0 ||
        results[iw_stream][ic_all].transfer_bytes_saved == 0) {
      fail("all: combined config lost an individual effect");
    }
  }

  // --- Part B: fat-tree oversubscription sweep ---
  const double kGbps[] = {56.0, 10.0};
  const double kOversub[] = {1.0, 2.0, 4.0, 8.0};
  std::vector<std::vector<SweepPoint>> sweep;
  std::printf("fat-tree oversubscription sweep (16 nodes, pods of 4):\n");
  std::printf("  %8s %9s %11s %12s\n", "gbps", "oversub", "finish_ms", "remote_ops");
  for (const double gbps : kGbps) {
    std::vector<SweepPoint> row;
    const SweepPoint mesh = RunSweepPoint(gbps, 0.0, quick);
    std::printf("  %8.1f %9s %11.3f %12llu\n", gbps, "mesh", mesh.finish_ms,
                static_cast<unsigned long long>(mesh.remote_reads + mesh.remote_writes));
    row.push_back(mesh);
    for (const double ratio : kOversub) {
      const SweepPoint p = RunSweepPoint(gbps, ratio, quick);
      std::printf("  %8.1f %9.1f %11.3f %12llu\n", gbps, ratio, p.finish_ms,
                  static_cast<unsigned long long>(p.remote_reads + p.remote_writes));
      if (p.finish_ms < row.back().finish_ms) {
        fail("oversub: storm finish time decreased as the core got more oversubscribed");
      }
      row.push_back(p);
    }
    sweep.push_back(std::move(row));
  }

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"fabric_transport\",\n  \"quick\": %s,\n",
               quick ? "true" : "false");
  std::fprintf(f, "  \"workloads\": {\n");
  for (size_t w = 0; w < workloads.size(); ++w) {
    std::fprintf(f, "    \"%s\": {\n", workloads[w].name);
    for (size_t c = 0; c < kNumConfigs; ++c) {
      const RunMetrics& m = results[w][c];
      std::fprintf(
          f,
          "      \"%s\": {\"completed\": %llu, \"checksum\": %llu, \"pages_checked\": %llu, "
          "\"read_faults\": %llu, \"write_faults\": %llu, \"protocol_messages\": %llu, "
          "\"protocol_bytes\": %llu, \"hint_hits\": %llu, \"rdma_reads\": %llu, "
          "\"compressed_transfers\": %llu, \"delta_transfers\": %llu, "
          "\"transfer_bytes_saved\": %llu, \"fault_latency_mean_us\": %.3f, "
          "\"sim_ms\": %.3f}%s\n",
          kConfigs[c].name, static_cast<unsigned long long>(m.completed),
          static_cast<unsigned long long>(m.checksum),
          static_cast<unsigned long long>(m.pages_checked),
          static_cast<unsigned long long>(m.read_faults),
          static_cast<unsigned long long>(m.write_faults),
          static_cast<unsigned long long>(m.protocol_messages),
          static_cast<unsigned long long>(m.protocol_bytes),
          static_cast<unsigned long long>(m.hint_hits),
          static_cast<unsigned long long>(m.rdma_reads),
          static_cast<unsigned long long>(m.compressed_transfers),
          static_cast<unsigned long long>(m.delta_transfers),
          static_cast<unsigned long long>(m.transfer_bytes_saved), m.fault_latency_mean_us,
          m.sim_ms, c + 1 < kNumConfigs ? "," : "");
    }
    std::fprintf(f, "    }%s\n", w + 1 < workloads.size() ? "," : "");
  }
  std::fprintf(f, "  },\n  \"oversub_sweep\": [\n");
  for (size_t g = 0; g < sweep.size(); ++g) {
    for (size_t i = 0; i < sweep[g].size(); ++i) {
      const SweepPoint& p = sweep[g][i];
      std::fprintf(f,
                   "    {\"gbps\": %.1f, \"oversub\": %.1f, \"finish_ms\": %.3f, "
                   "\"remote_reads\": %llu, \"remote_writes\": %llu}%s\n",
                   p.gbps, p.oversub, p.finish_ms,
                   static_cast<unsigned long long>(p.remote_reads),
                   static_cast<unsigned long long>(p.remote_writes),
                   g + 1 == sweep.size() && i + 1 == sweep[g].size() ? "" : ",");
    }
  }
  std::fprintf(f, "  ],\n  \"failures\": %d\n}\n", failures);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("all transport checks passed\n");
  return 0;
}

}  // namespace
}  // namespace fragvisor

int main(int argc, char** argv) { return fragvisor::Main(argc, argv); }
