// fvsim — command-line driver for ad-hoc FragVisor-Sim experiments.
//
// The bench/ binaries regenerate the paper's figures with fixed parameters;
// this tool runs one configuration chosen on the command line, for quick
// exploration:
//
//   fvsim npb  --bench IS --system fragvisor --vcpus 4 [--scale 0.25]
//   fvsim lemp --system giantvm --vcpus 4 --processing-ms 100 --requests 40
//   fvsim faas --system overcommit --vcpus 3 --detect-ms 400
//   fvsim sweep --bench CG --systems fragvisor,giantvm,overcommit:1 --jobs 8
//   fvsim list
//
// Systems: fragvisor | giantvm | overcommit[:P]   (P = pCPUs, default 1)
//
// `sweep` runs the systems x vCPUs grid for one NPB benchmark; each cell is
// an independent simulation, computed on --jobs threads. Output order (and
// every byte of it) is independent of the job count.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "bench/runner.h"
#include "src/cluster/marketplace.h"
#include "src/net/capture.h"
#include "src/sim/options.h"
#include "src/sim/trace.h"
#include "src/workload/dsmstorm.h"

namespace fragvisor {
namespace {

using bench::Setup;
using bench::System;

constexpr OptionLimits kThreads = Between(0, 256);

// Call once a command has read every flag: prints the first bad, unknown or
// invalid input and says whether the command may run.
bool Ready(KeyValues& args, const std::string& invalid = "") {
  if (args.Finish(invalid)) return true;
  std::fprintf(stderr, "fvsim: %s\n", args.error().c_str());
  return false;
}

// Parses "fragvisor" | "giantvm" | "overcommit[:P]" into `setup`, P a whole
// integer >= 1. Returns "" or why `system` is refused.
std::string ParseSystem(const std::string& system, Setup* setup) {
  constexpr std::string_view kOvercommit = "overcommit";
  if (system == "fragvisor") {
    setup->system = System::kFragVisor;
  } else if (system == "giantvm") {
    setup->system = System::kGiantVm;
  } else if (system == kOvercommit) {
    setup->system = System::kOvercommit;
    setup->overcommit_pcpus = 1;
  } else if (system.size() > kOvercommit.size() && system.starts_with(kOvercommit) &&
             system[kOvercommit.size()] == ':') {
    setup->system = System::kOvercommit;
    const std::string error = CodecFor<int>()->parse(
        std::string_view(system).substr(kOvercommit.size() + 1), AtLeast(1),
        &setup->overcommit_pcpus);
    if (!error.empty()) return "'" + system + "': pCPU count " + error;
  } else {
    return "'" + system + "' is not fragvisor|giantvm|overcommit[:P]";
  }
  return "";
}

// Fault-injection flags, shared by every workload command:
//   --fault-seed N        RNG seed for the plan's link-fault draws (default 1)
//   --fault-drop P        per-message drop probability on every link
//   --fault-dup P         per-message duplication probability
//   --fault-delay-us U    uniform extra delivery jitter in [0, U] us
//   --fault-crash n@ms[,n@ms...]      crash node n at t ms
//   --fault-restart n@ms[,n@ms...]    restart node n at t ms
//   --fault-partition a-b@ms-ms[,...] cut links a<->b during [from, until) ms
//   --fault-empty         attach an (empty) plan even with no faults
void ReadFaultSpec(KeyValues& args, Setup* setup) {
  constexpr OptionLimits kMillis = AtLeast(0, 1e6);
  bench::FaultSpec& f = setup->faults;
  f.seed = args.Get<uint64_t>("fault-seed", 1);
  f.drop_prob = args.Get("fault-drop", 0.0);
  f.dup_prob = args.Get("fault-dup", 0.0);
  f.extra_delay_max = Micros(args.Get("fault-delay-us", 0));
  f.attach_empty = args.Get("fault-empty", false);
  f.crashes = args.Get("fault-crash", f.crashes, kMillis);
  f.restarts = args.Get("fault-restart", f.restarts, kMillis);
  f.partitions = args.Get("fault-partition", f.partitions, kMillis);
}

// Reliability flags, shared by every workload command:
//   --protect             health monitoring + checkpoint/restart failover
//   --detector phi|fixed  heartbeat failure detector (default fixed)
//   --partial-recovery    surgical recovery when a lender node dies
//   --ckpt-ms T           checkpoint interval (default 100 ms)
//   --heartbeat-ms T      heartbeat interval (default 20 ms)
//   --lease-ms T          lease-protect borrowed resources, T ms duration
//   --lease-renew-ms T    lease renewal interval (default T/2)
void ReadReliabilitySpec(KeyValues& args, Setup* setup) {
  bench::ReliabilitySpec& rel = setup->reliability;
  rel.protect = args.Get("protect", false);
  const std::string detector = args.Get<std::string>("detector", "", OneOf("phi|fixed"));
  if (detector == "phi") {
    rel.detector = FailureDetector::kPhiAccrual;
  }
  rel.partial_recovery = args.Get("partial-recovery", false);
  rel.checkpoint_interval = Millis(args.Get("ckpt-ms", 100));
  rel.heartbeat_interval = Millis(args.Get("heartbeat-ms", 20));
  if (const int lease_ms = args.Get("lease-ms", 0); lease_ms > 0) {
    rel.leases = true;
    rel.lease_duration = Millis(lease_ms);
    rel.lease_renew = Millis(args.Get("lease-renew-ms", std::max(1, lease_ms / 2)));
  }
  if ((rel.partial_recovery || !detector.empty()) && !rel.protect) {
    args.Fail("--partial-recovery/--detector need --protect");
  }
}

// `with_client` adds the external client node lemp and faas run with, so
// fault flags may name it.
Setup MakeSetup(KeyValues& args, bool with_client = false) {
  Setup setup;
  setup.with_client = with_client;
  setup.vcpus = args.Get("vcpus", 4);
  if (const std::string error = ParseSystem(args.Str("system", "fragvisor"), &setup);
      !error.empty()) {
    args.Fail("system", error);
  }
  if (args.Get("vanilla-guest", false)) {
    setup.guest = GuestKernelConfig::Vanilla();
  }
  if (args.Get("no-multiqueue", false)) {
    setup.io_multiqueue = false;
  }
  if (args.Get("no-bypass", false)) {
    setup.io_dsm_bypass = false;
  }
  if (args.Get("no-contextual-dsm", false)) {
    setup.contextual_dsm = false;
  }
  setup.rpc.coalesced_acks = args.Get("rpc-coalesce", false);
  setup.rpc.qos.enabled = args.Get("rpc-qos", false);
  setup.threads = args.Get("threads", 0, kThreads);
  setup.dsm_prefetch = args.Get("dsm-prefetch", 0);
  setup.dsm_owner_hints = args.Get("dsm-hints", false);
  setup.dsm_replicate = args.Get("dsm-replicate", false);
  setup.dsm_adaptive = args.Get("dsm-adaptive", false);
  setup.dsm_rdma_read = args.Get("dsm-rdma-read", false);
  setup.dsm_compress = args.Get("dsm-compress", false);
  ReadFaultSpec(args, &setup);
  ReadReliabilitySpec(args, &setup);
  // Fault flags may only name nodes of the testbed the command builds.
  const int nodes = bench::TestBedNodes(setup);
  const auto check = [&](const char* flag, NodeId n) {
    if (n < 0 || n >= nodes) {
      args.Fail(flag, "node " + std::to_string(n) + " is outside the " + std::to_string(nodes) +
                          "-node testbed");
    }
  };
  for (const auto& e : setup.faults.crashes) check("fault-crash", e.node);
  for (const auto& e : setup.faults.restarts) check("fault-restart", e.node);
  for (const auto& p : setup.faults.partitions) {
    check("fault-partition", p.a);
    check("fault-partition", p.b);
  }
  return setup;
}

bool WriteBinaryFile(const std::string& path, const std::string& data, const char* what) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s file '%s'\n", what, path.c_str());
    return false;
  }
  const size_t n = std::fwrite(data.data(), 1, data.size(), f);
  std::fclose(f);
  if (n != data.size()) {
    std::fprintf(stderr, "short write to %s file '%s'\n", what, path.c_str());
    return false;
  }
  return true;
}

bool ReadBinaryFile(const std::string& path, std::string* data, const char* what) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot read %s file '%s'\n", what, path.c_str());
    return false;
  }
  data->clear();
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    data->append(buf, n);
  }
  std::fclose(f);
  return true;
}

// Writes a --report or --msg-stats dump: to stdout for "-" or a bare flag,
// else to the named file. An empty path writes nothing.
bool WriteOutput(const std::string& path, const std::string& text, const char* what) {
  if (path.empty()) return true;
  if (path == "-" || path == "1") {
    std::fputs(text.c_str(), stdout);
    return true;
  }
  if (!WriteBinaryFile(path, text, what)) return false;
  std::printf("%s written to %s\n", what, path.c_str());
  return true;
}

// Runs one NPB benchmark with the parsed setup. The per-kind traffic table
// always prints; --msg-stats additionally dumps the full JSON.
int RunNpb(KeyValues& args) {
  const Setup setup = MakeSetup(args);
  const std::string bench = args.Get<std::string>("bench", "CG", OneOf(NpbNames()));
  const double scale = args.Get("scale", 0.25);
  const uint64_t seed = args.Get<uint64_t>("seed", 1);
  const std::string msg_stats_path = args.Str("msg-stats");
  if (!Ready(args)) return 2;
  const NpbProfile profile = ScaleNpb(NpbByName(bench), scale);
  double faults = 0;
  bench::FaultReport report;
  bench::MsgStatsReport msg_stats;
  bench::ReliabilityReport reliability;
  bench::DsmFastPathReport fastpath;
  const TimeNs end = bench::RunNpbMultiProcess(setup, profile, seed, &faults, &report,
                                               &msg_stats, &reliability, &fastpath);
  std::printf("%s x%d on %s: %.2f ms (%.0f DSM faults/s)\n", profile.name.c_str(), setup.vcpus,
              bench::SystemName(setup.system), ToMillis(end), faults);
  if (setup.dsm_owner_hints || setup.dsm_replicate || setup.dsm_adaptive ||
      setup.dsm_prefetch > 0 || setup.dsm_rdma_read || setup.dsm_compress) {
    bench::PrintHeader("dsm fast paths");
    bench::PrintDsmFastPathReport(fastpath);
  }
  if (setup.faults.enabled()) {
    bench::PrintFaultReport(report);
  }
  if (setup.reliability.enabled()) {
    bench::PrintHeader("recovery report");
    bench::PrintReliabilityReport(reliability);
  }
  bench::PrintMsgStats(msg_stats);
  return WriteOutput(msg_stats_path, bench::MsgStatsJson(msg_stats), "msg stats") ? 0 : 2;
}

int RunLempCmd(KeyValues& args) {
  const Setup setup = MakeSetup(args, /*with_client=*/true);
  LempConfig lemp;
  lemp.num_php_workers = setup.vcpus - 1;
  const int processing_ms = args.Get("processing-ms", 100);
  lemp.processing_time = Millis(processing_ms);
  lemp.total_requests = args.Get("requests", 40);
  lemp.concurrency = args.Get("concurrency", 10);
  const std::string msg_stats_path = args.Str("msg-stats");
  if (!Ready(args)) return 2;
  double faults = 0;
  bench::MsgStatsReport msg_stats;
  bench::FaultReport report;
  const double tput = bench::RunLemp(setup, lemp, &faults, &msg_stats, &report);
  std::printf("LEMP %d vCPUs on %s, %d ms requests: %.1f req/s (%.0f DSM faults/s)\n",
              setup.vcpus, bench::SystemName(setup.system), processing_ms, tput, faults);
  if (setup.faults.enabled()) {
    bench::PrintFaultReport(report);
  }
  bench::PrintMsgStats(msg_stats);
  return WriteOutput(msg_stats_path, bench::MsgStatsJson(msg_stats), "msg stats") ? 0 : 2;
}

int RunFaasCmd(KeyValues& args) {
  const Setup setup = MakeSetup(args, /*with_client=*/true);
  FaasConfig faas;
  faas.download_bytes = args.Get<uint64_t>("download-mb", 4) << 20;
  faas.extract_bytes = args.Get<uint64_t>("extract-mb", 16) << 20;
  faas.detect_compute = Millis(args.Get("detect-ms", 400));
  const std::string msg_stats_path = args.Str("msg-stats");
  if (!Ready(args)) return 2;
  bench::MsgStatsReport msg_stats;
  bench::FaultReport report;
  const FaasPhaseStats stats = bench::RunFaas(setup, faas, nullptr, &msg_stats, &report);
  std::printf("OpenLambda %d workers on %s: download %.1f ms, extract %.1f ms, "
              "detect %.1f ms, total %.1f ms\n",
              setup.vcpus, bench::SystemName(setup.system), stats.download_ns.mean() / 1e6,
              stats.extract_ns.mean() / 1e6, stats.detect_ns.mean() / 1e6,
              stats.total_ns.mean() / 1e6);
  if (setup.faults.enabled()) {
    bench::PrintFaultReport(report);
  }
  bench::PrintMsgStats(msg_stats);
  return WriteOutput(msg_stats_path, bench::MsgStatsJson(msg_stats), "msg stats") ? 0 : 2;
}

// Snapshot flags shared by storm and cluster: --snapshot-save F
// [--snapshot-epoch K] saves once K epochs (cluster: admission waves) have
// completed; --snapshot-load F resumes from a saved snapshot.
struct Snapshots {
  std::string save_path;
  std::string out;
  std::string in;
  std::string load_error;

  template <typename RunConfig>
  bool Arm(KeyValues& args, int epochs, RunConfig* cfg) {
    save_path = args.Str("snapshot-save");
    cfg->snapshot_epoch = args.Get("snapshot-epoch", epochs, Between(1, epochs));
    if (!save_path.empty()) {
      cfg->snapshot_out = &out;
    }
    const std::string load_path = args.Str("snapshot-load");
    if (!load_path.empty()) {
      if (!ReadBinaryFile(load_path, &in, "snapshot")) return false;
      cfg->snapshot_in = &in;
    }
    cfg->error = &load_error;
    return true;
  }

  // Reports a failed load and writes the saved snapshot; `unit` names what
  // the snapshot epoch counts.
  bool Finish(int epoch, const char* unit) const {
    if (!load_error.empty()) {
      std::fprintf(stderr, "snapshot load failed: %s\n", load_error.c_str());
      return false;
    }
    if (save_path.empty()) return true;
    if (out.empty()) {
      std::fprintf(stderr, "no snapshot was taken (a resumed run starts past --snapshot-epoch)\n");
      return false;
    }
    if (!WriteBinaryFile(save_path, out, "snapshot")) return false;
    std::printf("snapshot (%zu bytes, %s %d) written to %s\n", out.size(), unit, epoch,
                save_path.c_str());
    return true;
  }
};

// DSM coherence storm on the parallel simulation core.
//
//   fvsim storm                                  # ParallelEventLoop, 1 worker
//   fvsim storm --threads 4                      # 4 workers
//   fvsim storm --threads 2 --report             # + canonical determinism dump
//
// The canonical report (--report) is byte-identical across --threads values
// for a fixed configuration; pipe two runs through diff to check.
//
// Snapshots and record/replay (DESIGN.md §10):
//   fvsim storm --epochs 4 --snapshot-save s.fvsnap --snapshot-epoch 2
//   fvsim storm --epochs 4 --snapshot-load s.fvsnap        # resumes epoch 3
//   fvsim storm --capture run.fvcap                        # record deliveries
//   fvsim replay --capture run.fvcap                       # re-run and diff
int RunStormCmd(KeyValues& args) {
  StormOptions so;
  ReadOptions(StormOptionTable(), args, &so);
  const int threads = args.Get("threads", 1, kThreads);
  const std::string capture_path = args.Str("capture");
  const std::string report_path = args.Str("report");
  StormRunConfig cfg;
  Snapshots snapshots;
  if (!snapshots.Arm(args, so.epochs, &cfg) || !Ready(args, Validate(so))) return 2;
  std::unique_ptr<CaptureLog> capture;
  if (!capture_path.empty()) {
    capture = std::make_unique<CaptureLog>(so.num_nodes);
    cfg.capture = capture.get();
  }

  const auto wall_start = std::chrono::steady_clock::now();
  const StormResult r = RunStormEx(so, threads, cfg);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  if (!snapshots.Finish(cfg.snapshot_epoch, "epoch")) return 2;
  if (capture != nullptr) {
    // The config blob is the table plus the worker count, so `fvsim
    // replay` re-runs the captured configuration with no flags.
    const std::string data = capture->Serialize("workload=storm\n" +
                                                FormatOptions(StormOptionTable(), so) +
                                                "threads=" + std::to_string(threads) + "\n");
    if (!WriteBinaryFile(capture_path, data, "capture")) {
      return 2;
    }
    std::printf("capture (%llu deliveries, %zu bytes) written to %s\n",
                static_cast<unsigned long long>(capture->total_records()), data.size(),
                capture_path.c_str());
  }

  std::printf("storm %d nodes x %d streams on parallel[%d]: %.2f ms simulated, %llu events "
              "(%.0f events/s wall), digest %016llx\n",
              so.num_nodes, so.streams_per_node, r.threads, ToMillis(r.finish_time),
              static_cast<unsigned long long>(r.events_dispatched),
              wall_s > 0 ? static_cast<double>(r.events_dispatched) / wall_s : 0.0,
              static_cast<unsigned long long>(r.state_digest));
  if (so.topology.fat_tree()) {
    std::printf("  topology fat-tree: pods of %d, oversub %.2f, %d core planes\n",
                so.topology.pod_size, so.topology.oversub, so.topology.core_planes);
  }
  std::printf("  remote reads %llu, writes %llu, cache hits %llu, invalidations %llu, "
              "failures %llu\n",
              static_cast<unsigned long long>(r.totals.remote_reads),
              static_cast<unsigned long long>(r.totals.remote_writes),
              static_cast<unsigned long long>(r.totals.cache_hits),
              static_cast<unsigned long long>(r.totals.invalidations),
              static_cast<unsigned long long>(r.totals.failures));
  if (r.used_fault_plan) {
    std::printf("  faults: %llu dropped, %llu duplicated, %llu delayed\n",
                static_cast<unsigned long long>(r.faults.messages_dropped.value()),
                static_cast<unsigned long long>(r.faults.messages_duplicated.value()),
                static_cast<unsigned long long>(r.faults.messages_delayed.value()));
  }

  // Parallelism report: how the run decomposed into conservative windows.
  const ParallelEventLoop::RunStats& c = r.core;
  uint64_t part_min = ~0ull;
  uint64_t part_max = 0;
  uint64_t part_sum = 0;
  for (const uint64_t e : c.events_per_partition) {
    part_min = std::min(part_min, e);
    part_max = std::max(part_max, e);
    part_sum += e;
  }
  const double part_mean = c.events_per_partition.empty()
                               ? 0.0
                               : static_cast<double>(part_sum) /
                                     static_cast<double>(c.events_per_partition.size());
  std::printf("parallel core report (%d partitions, %d workers):\n",
              static_cast<int>(c.events_per_partition.size()), r.threads);
  std::printf("  barriers           %llu (%.1f events/window)\n",
              static_cast<unsigned long long>(c.barriers),
              c.barriers > 0 ? static_cast<double>(c.events_dispatched) /
                                   static_cast<double>(c.barriers)
                             : 0.0);
  std::printf("  partitions run     mean %.1f, min %.0f, max %.0f per window\n",
              c.partitions_run.mean(), c.partitions_run.min(), c.partitions_run.max());
  std::printf("  horizon advance    mean %.0f ns, min %.0f, max %.0f\n",
              c.horizon_width_ns.mean(), c.horizon_width_ns.min(), c.horizon_width_ns.max());
  std::printf("  events/partition   min %llu, mean %.1f, max %llu\n",
              static_cast<unsigned long long>(part_min == ~0ull ? 0 : part_min), part_mean,
              static_cast<unsigned long long>(part_max));
  std::printf("  mailbox deliveries %llu cross-partition events\n",
              static_cast<unsigned long long>(c.mailbox_events));
  std::printf("  cross cancels      %llu routed, %llu applied, %llu late\n",
              static_cast<unsigned long long>(c.cross_cancels_routed),
              static_cast<unsigned long long>(c.cross_cancels_applied),
              static_cast<unsigned long long>(c.cross_cancels_late));

  return WriteOutput(report_path, StormReport(r), "storm report") ? 0 : 2;
}

// Multi-tenant cluster marketplace on the parallel core (DESIGN.md §11).
//
//   fvsim cluster --nodes 64 --vms 100 --trace poisson --threads 4
//   fvsim cluster --trace flash --policy harvest --report
//
// The canonical report (--report) is byte-identical across --threads values
// for a fixed configuration. Snapshots follow the storm command's shape:
//   fvsim cluster --epochs 2 --snapshot-save s.fvsnap --snapshot-epoch 1
//   fvsim cluster --epochs 2 --snapshot-load s.fvsnap
int RunClusterCmd(KeyValues& args) {
  MarketplaceOptions mo;
  ReadOptions(MarketplaceOptionTable(), args, &mo);
  const int threads = args.Get("threads", 1, kThreads);
  const std::string report_path = args.Str("report");
  MarketplaceRunConfig cfg;
  Snapshots snapshots;
  if (!snapshots.Arm(args, mo.epochs, &cfg) || !Ready(args, Validate(mo))) return 2;

  const auto wall_start = std::chrono::steady_clock::now();
  const MarketplaceResult r = RunMarketplaceEx(mo, threads, cfg);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  if (!snapshots.Finish(cfg.snapshot_epoch, "wave")) return 2;

  std::printf("cluster %d nodes x %d vms (%s, %s): %.2f ms simulated, %llu events "
              "(%.0f events/s wall), digest %016llx\n",
              mo.num_nodes, mo.trace.vms, ArrivalKindName(mo.trace.kind), mo.policy.c_str(),
              ToMillis(r.finish_time), static_cast<unsigned long long>(r.events_dispatched),
              wall_s > 0 ? static_cast<double>(r.events_dispatched) / wall_s : 0.0,
              static_cast<unsigned long long>(r.state_digest));
  if (mo.topology.fat_tree() || mo.rdma_read || mo.compress) {
    std::printf("  transport:%s%s%s\n",
                mo.topology.fat_tree()
                    ? (std::string(" fat-tree pods=") + std::to_string(mo.topology.pod_size) +
                       " oversub=" + std::to_string(mo.topology.oversub) +
                       " planes=" + std::to_string(mo.topology.core_planes))
                          .c_str()
                    : "",
                mo.rdma_read ? " rdma-read" : "", mo.compress ? " compress" : "");
  }
  std::printf("  placement: %llu whole, %llu aggregate, %llu delayed, %llu reclaims, "
              "%llu completed\n",
              static_cast<unsigned long long>(r.placed_single),
              static_cast<unsigned long long>(r.placed_aggregate),
              static_cast<unsigned long long>(r.delayed),
              static_cast<unsigned long long>(r.reclaims),
              static_cast<unsigned long long>(r.vms_completed));
  std::printf("  requests: %llu local, %llu remote; latency p50 %.1f us, p99 %.1f us\n",
              static_cast<unsigned long long>(r.totals.local_requests),
              static_cast<unsigned long long>(r.totals.remote_requests),
              r.latency.Percentile(50) / 1e3, r.latency.Percentile(99) / 1e3);
  std::printf("  efficiency: consolidation %.3f mean / %.3f final, stranded %.1f mean "
              "slots\n",
              r.consolidation.MeanValue(),
              r.consolidation.empty() ? 0.0 : r.consolidation.points().back().second,
              r.stranded.MeanValue());
  if (r.used_fault_plan) {
    std::printf("  faults: %llu dropped, %llu duplicated, %llu delayed, %llu crashes, "
                "%llu restarts, %llu cuts, %llu heals\n",
                static_cast<unsigned long long>(r.faults.messages_dropped.value()),
                static_cast<unsigned long long>(r.faults.messages_duplicated.value()),
                static_cast<unsigned long long>(r.faults.messages_delayed.value()),
                static_cast<unsigned long long>(r.faults.node_crashes.value()),
                static_cast<unsigned long long>(r.faults.node_restarts.value()),
                static_cast<unsigned long long>(r.faults.partitions_cut.value()),
                static_cast<unsigned long long>(r.faults.partitions_healed.value()));
    std::printf("  retry: %llu retransmits, %llu timeouts, %llu send failures, "
                "%llu dups suppressed\n",
                static_cast<unsigned long long>(r.retry.retransmits.total()),
                static_cast<unsigned long long>(r.retry.timeouts.total()),
                static_cast<unsigned long long>(r.retry.send_failures.total()),
                static_cast<unsigned long long>(r.retry.dups_suppressed.total()));
    std::printf("  chaos: %llu failovers, %llu nodes died, %llu vms failed, "
                "%llu replacements, %llu degradations, %llu journal records, "
                "%llu late dones\n",
                static_cast<unsigned long long>(r.failovers),
                static_cast<unsigned long long>(r.nodes_died),
                static_cast<unsigned long long>(r.vms_failed),
                static_cast<unsigned long long>(r.lender_replacements),
                static_cast<unsigned long long>(r.lender_degradations),
                static_cast<unsigned long long>(r.journal_records),
                static_cast<unsigned long long>(r.late_dones));
    if (r.detection_ns.count() > 0) {
      std::printf("  failover: detect p50 %.1f us / p99 %.1f us",
                  r.detection_ns.Percentile(50) / 1e3, r.detection_ns.Percentile(99) / 1e3);
      if (r.recovery_ns.count() > 0) {
        std::printf(", recover p50 %.1f us / p99 %.1f us",
                    r.recovery_ns.Percentile(50) / 1e3, r.recovery_ns.Percentile(99) / 1e3);
      }
      std::printf("\n");
    }
  }

  return WriteOutput(report_path, MarketplaceReport(r), "cluster report") ? 0 : 2;
}

// Re-runs a captured configuration and diffs the fresh delivery stream
// against the recording, shredcap-style: exit 0 and "zero diffs" when the
// fabric commits byte-identical deliveries, otherwise the first mismatched
// delivery (time, src, dst, kind, payload hash) and exit 1.
//
//   fvsim replay --capture run.fvcap [--threads N]
//
// --threads overrides the recorded worker count — legal because the capture
// order is worker-count-invariant.
int RunReplayCmd(KeyValues& args) {
  const std::string path = args.Str("capture");
  if (path.empty()) {
    std::fprintf(stderr, "replay needs --capture FILE\n");
    return 2;
  }
  std::string data;
  if (!ReadBinaryFile(path, &data, "capture")) {
    return 2;
  }
  std::string blob;
  std::vector<CaptureRecord> expected;
  std::string error;
  if (!CaptureLog::Deserialize(data, &blob, &expected, &error)) {
    std::fprintf(stderr, "cannot load capture '%s': %s\n", path.c_str(), error.c_str());
    return 2;
  }
  KeyValues config;
  config.AddLines(blob);
  config.Get<std::string>("workload", "storm", OneOf("storm"));
  StormOptions so;
  ReadOptions(StormOptionTable(), config, &so);
  const int recorded_threads = config.Get("threads", 1, kThreads);
  if (!config.Finish(Validate(so))) {
    std::fprintf(stderr, "capture '%s' config: %s\n", path.c_str(), config.error().c_str());
    return 2;
  }
  const int threads = args.Get("threads", recorded_threads, kThreads);
  if (!Ready(args)) return 2;

  CaptureLog live(so.num_nodes);
  StormRunConfig cfg;
  cfg.capture = &live;
  RunStormEx(so, threads, cfg);
  const std::vector<CaptureRecord> actual = live.Canonical();

  const int64_t diverge = CaptureDiverge(expected, actual);
  if (diverge < 0) {
    std::printf("replay: %zu deliveries, zero diffs\n", actual.size());
    return 0;
  }
  const size_t at = static_cast<size_t>(diverge);
  std::printf("replay: DIVERGED at delivery %lld of %zu\n", static_cast<long long>(diverge),
              expected.size());
  std::printf("  recorded: %s\n", at < expected.size()
                                      ? CaptureLog::Describe(expected[at]).c_str()
                                      : "(absent — live run committed extra deliveries)");
  std::printf("  live:     %s\n", at < actual.size()
                                      ? CaptureLog::Describe(actual[at]).c_str()
                                      : "(absent — live run ended early)");
  return 1;
}

int RunSweep(KeyValues& args) {
  const std::string bench = args.Get<std::string>("bench", "CG", OneOf(NpbNames()));
  const double scale = args.Get("scale", 0.25);
  const uint64_t seed = args.Get<uint64_t>("seed", 1);
  const int vcpus_min = args.Get("vcpus-min", 2);
  const int vcpus_max = args.Get("vcpus-max", 4);
  const std::string names = args.Str("systems", "fragvisor,giantvm,overcommit:1,overcommit:2");
  std::vector<std::pair<std::string, Setup>> systems;
  for (const std::string_view name : Split(names, ',')) {
    auto& [system, setup] = systems.emplace_back(std::string(name), Setup());
    if (const std::string error = ParseSystem(system, &setup); !error.empty()) {
      args.Fail("systems", error);
    }
  }
  const int jobs = args.Get("jobs", 1);
  if (!Ready(args)) return 2;
  const NpbProfile profile = ScaleNpb(NpbByName(bench), scale);

  std::printf("%s sweep (scale %.2f, seed %llu)\n", profile.name.c_str(), scale,
              static_cast<unsigned long long>(seed));
  bench::PrintRow({"system", "vCPUs", "time(ms)", "faults/s"}, 14);

  bench::ParallelRunner runner(jobs);
  for (const auto& [system, base] : systems) {
    for (int vcpus = vcpus_min; vcpus <= vcpus_max; ++vcpus) {
      runner.Submit([setup = base, system, vcpus, profile, seed]() mutable {
        setup.vcpus = vcpus;
        double faults = 0;
        const TimeNs end = bench::RunNpbMultiProcess(setup, profile, seed, &faults);
        return bench::FormatRow(
            {system, std::to_string(vcpus), bench::Fmt(ToMillis(end)), bench::Fmt(faults, 0)},
            14);
      });
    }
  }
  runner.Finish();
  return 0;
}

int List() {
  std::printf("commands:\n");
  std::printf("  npb   --bench <name> --system <sys> --vcpus N [--scale F] [--seed N]\n");
  std::printf("  lemp  --system <sys> --vcpus N [--processing-ms T] [--requests N]\n");
  std::printf("  faas  --system <sys> --vcpus N [--detect-ms T] [--download-mb M]\n");
  std::printf("  sweep --bench <name> [--systems a,b,...] [--vcpus-min N] [--vcpus-max N]\n");
  std::printf("        [--scale F] [--seed N] [--jobs N]\n");
  std::printf("  storm [--threads N] [--report [PATH]] [--capture F]\n");
  std::printf("        [--snapshot-save F [--snapshot-epoch K]] [--snapshot-load F]\n");
  std::printf("        plus one flag per StormOptions field:\n%s",
              OptionsUsage(StormOptionTable()).c_str());
  std::printf("  cluster [--threads N] [--report [PATH]]\n");
  std::printf("        [--snapshot-save F [--snapshot-epoch K]] [--snapshot-load F]\n");
  std::printf("        plus one flag per MarketplaceOptions field (times t in ms):\n%s",
              OptionsUsage(MarketplaceOptionTable()).c_str());
  std::printf("  replay --capture F [--threads N]\n");
  std::printf("  list\n\n");
  std::printf("systems: fragvisor | giantvm | overcommit[:pcpus]\n");
  std::printf("flags:   --vanilla-guest --no-multiqueue --no-bypass --no-contextual-dsm\n");
  std::printf("rpc:     --rpc-coalesce (multicast ack coalescing)\n");
  std::printf("         --rpc-qos (weighted deficit link scheduler)\n");
  std::printf("         --msg-stats [PATH] (per-kind traffic JSON; '-' = stdout)\n");
  std::printf("dsm:     --dsm-prefetch N (sequential read prefetch depth)\n");
  std::printf("         --dsm-hints (owner-hint cache: direct-to-owner faults)\n");
  std::printf("         --dsm-replicate (read-mostly replication)\n");
  std::printf("         --dsm-adaptive (adaptive transfer granularity + hold)\n");
  std::printf("         --dsm-rdma-read (one-sided RDMA-read page pulls)\n");
  std::printf("         --dsm-compress (compressed + delta-diffed page transfers)\n");
  std::printf("faults:  --fault-seed N --fault-drop P --fault-dup P --fault-delay-us U\n");
  std::printf("         --fault-crash n@ms[,..] --fault-restart n@ms[,..]\n");
  std::printf("         --fault-partition a-b@ms-ms[,..] --fault-empty\n");
  std::printf("protect: --protect (heartbeats + checkpoint/restart; npb only)\n");
  std::printf("         --detector phi|fixed (gray-failure-aware vs miss counter)\n");
  std::printf("         --partial-recovery (surgical lender-death recovery)\n");
  std::printf("         --ckpt-ms T --heartbeat-ms T\n");
  std::printf("leases:  --lease-ms T [--lease-renew-ms T] (lease borrowed resources)\n");
  std::printf("threads: --threads N on npb/lemp/faas hosts the testbed clock on the\n");
  std::printf("         parallel engine (byte-identical output); on storm/cluster it is\n");
  std::printf("         the parallel core's worker count (default 1; 0 means 1)\n\n");
  std::printf("NPB benchmarks: %s\nOMP profiles:  ", NpbNames());
  for (const OmpProfile& p : OmpSuite()) {
    std::printf(" %s", p.name.c_str());
  }
  std::printf("\n");
  return 0;
}

int Main(int argc, char** argv) {
  const std::string command = argc >= 2 ? argv[1] : "";
  KeyValues args(KeyValues::Style::kFlags);
  args.AddArgs(std::max(argc - 2, 0), argv + std::min(argc, 2));
  if (command == "npb") {
    return RunNpb(args);
  }
  if (command == "lemp") {
    return RunLempCmd(args);
  }
  if (command == "faas") {
    return RunFaasCmd(args);
  }
  if (command == "storm") {
    return RunStormCmd(args);
  }
  if (command == "cluster") {
    return RunClusterCmd(args);
  }
  if (command == "replay") {
    return RunReplayCmd(args);
  }
  if (command == "sweep") {
    return RunSweep(args);
  }
  if (command == "list" || command.empty()) {
    return Ready(args) ? List() : 2;
  }
  std::fprintf(stderr, "unknown command '%s'; try 'fvsim list'\n", command.c_str());
  return 2;
}

}  // namespace
}  // namespace fragvisor

int main(int argc, char** argv) { return fragvisor::Main(argc, argv); }
