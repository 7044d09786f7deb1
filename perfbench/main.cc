// fvbench: the FragVisor-Sim benchmark program (see perfbench/README.md).
//
//   fvbench --workload avm-omp|storm64|cluster128-flash --seed N --seconds S
//           --trace 0|1 [--source-id ID] [--spans PATH] [--expect-digest HEX]
//
// --trace 0 measures the end-to-end metrics: a closed loop of whole
// one-worker simulation runs for S seconds, each followed by the host-speed
// probe and a few timed set-ups of the same system.
// --trace 1 measures the per-layer metrics: an untraced one-worker run, a
// traced one-worker run and an untraced two-worker run, in turn for S
// seconds, then the per-layer probes.
// Every run's simulated output is checked. The last line of stdout is one
// JSON object with the keys correct, attempted, failed and metrics.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/probes.h"
#include "perfbench/spans.h"
#include "perfbench/workloads.h"

namespace fvbench {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Set-up is timed kSetupRepsPerRun times after every simulation run, so its
// samples are spread over the whole loop, and at least kSetupMinReps times in
// all; the median is reported.
constexpr size_t kSetupRepsPerRun = 10;
constexpr size_t kSetupMinReps = 100;
// No new simulation run starts once this much time has passed, so a run ends
// well inside its 180 s limit even on a loaded machine.
constexpr double kHardStopSeconds = 120;

// The host-speed probe: random read-modify-writes over a 16 MiB buffer, a
// fixed amount of work that runs no simulator code. On a shared machine the
// memory system's speed drifts by a third over minutes, and the simulator's
// wall time drifts with it; the probe's time follows the same drift, so a
// time divided by the probe time taken next to it stays steady where the raw
// time does not (README.md gives the measurements).
class HostProbe {
 public:
  HostProbe() : buf_(kWords) {
    for (size_t i = 0; i < kWords; ++i) {
      buf_[i] = i;
    }
  }

  // Seconds the fixed work takes now.
  double Run() {
    const auto t0 = Clock::now();
    for (uint64_t i = 0; i < kUpdates; ++i) {
      x_ = x_ * 6364136223846793005ull + 1;
      buf_[(x_ >> 20) & (kWords - 1)] += x_;
    }
    return Since(t0);
  }

 private:
  static constexpr size_t kWords = size_t{1} << 21;  // 16 MiB of uint64_t
  static constexpr uint64_t kUpdates = 4000000;
  std::vector<uint64_t> buf_;
  uint64_t x_ = 1;
};

// Reference seconds are seconds on a host where the probe takes this long:
// a time t measured next to a probe time p reads t * kProbeRefSeconds / p.
constexpr double kProbeRefSeconds = 0.05;

// Whether to start another round of runs: the loop ends as close to `budget`
// seconds as whole rounds allow, and never starts one past kHardStopSeconds.
bool KeepGoing(double elapsed, double last_round, double budget) {
  return elapsed + last_round / 2 < budget && elapsed + last_round < kHardStopSeconds;
}

struct Args {
  Workload workload = Workload::kAvmOmp;
  uint64_t seed = 1;
  double seconds = 0;
  int trace = -1;
  std::string source_id = "unknown";
  std::string spans_path;
  uint64_t expect_digest = 0;  // 0 = the pinned digest for the seed, if any
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const std::string val = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      if (!ParseWorkload(val, &a->workload)) {
        std::fprintf(stderr, "unknown workload '%s' (avm-omp|storm64|cluster128-flash)\n",
                     val.c_str());
        return false;
      }
      have_workload = true;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(val.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(val.c_str(), &end);
    } else if (flag == "--trace") {
      a->trace = static_cast<int>(std::strtol(val.c_str(), &end, 10));
    } else if (flag == "--source-id") {
      a->source_id = val;
    } else if (flag == "--spans") {
      a->spans_path = val;
    } else if (flag == "--expect-digest") {
      a->expect_digest = std::strtoull(val.c_str(), &end, 16);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == val.c_str())) {
      std::fprintf(stderr, "bad value '%s' for %s\n", val.c_str(), flag.c_str());
      return false;
    }
  }
  if (!have_workload || a->seconds <= 0 || a->seconds > 60 || (a->trace != 0 && a->trace != 1)) {
    std::fprintf(stderr,
                 "usage: fvbench --workload NAME --seed N --seconds S (0 < S <= 60) "
                 "--trace 0|1\n");
    return false;
  }
  return true;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// "median over n samples", the highest whole percentile that still has at
// least ten samples above it (nearest rank) when there is one, and the
// samples in run order, which shows drift within the run.
std::string Distribution(const std::vector<double>& samples, const char* unit) {
  std::vector<double> v = samples;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  char buf[160];
  std::snprintf(buf, sizeof(buf), "median %.6g %s over n=%zu", Median(v), unit, n);
  std::string out = buf;
  if (n < 11) {
    out += "; no percentile has >=10 samples beyond it";
  } else {
    const int p = static_cast<int>(100 * (n - 10) / n);
    const size_t rank = std::max<size_t>(1, (static_cast<size_t>(p) * n + 99) / 100);
    std::snprintf(buf, sizeof(buf), "; p%d %.6g %s", p, v[rank - 1], unit);
    out += buf;
  }
  if (n > 1 && n <= 64) {
    out += "; in run order:";
    for (const double x : samples) {
      std::snprintf(buf, sizeof(buf), " %.4g", x);
      out += buf;
    }
  }
  return out;
}

// The value of the first "model name" line of /proc/cpuinfo.
std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const size_t colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      return line.substr(std::min(colon + 2, line.size()));
    }
  }
  return "unknown";
}

std::string LoadAverage() {
  std::ifstream in("/proc/loadavg");
  std::string line;
  return std::getline(in, line) ? line : "unknown";
}

void PrintFingerprint(const Args& a) {
  std::printf("fingerprint: nproc=%u cpu=\"%s\" compiler=\"gcc %s\" build=%s flags=\"%s\" "
              "source=%s loadavg_start=\"%s\"\n",
              std::thread::hardware_concurrency(), CpuModel().c_str(), __VERSION__,
              FVBENCH_BUILD_TYPE, FVBENCH_CXX_FLAGS, a.source_id.c_str(), LoadAverage().c_str());
}

// Peak resident set of this process image, from VmHWM. getrusage's
// ru_maxrss is not used: Linux carries it across exec, so it would include
// the launching process.
double PeakRssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // the value is in kB
    }
  }
  return 0;
}

// Checks every run against the first one-worker run and the expected digest,
// and keeps the operation tallies. A run that fails a check counts all its
// operations as failed.
class Checker {
 public:
  Checker(Workload w, uint64_t expected_digest) : workload_(w), expected_(expected_digest) {}

  void Add(const char* label, RunResult& r) {
    if (reference_.empty()) {
      reference_ = r.report;
      reference_label_ = label;
    } else if (r.report != reference_) {
      r.errors.push_back(std::string(label) + " simulated output differs from " + reference_label_);
    }
    if (expected_ != 0 && r.digest != expected_) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "digest %016" PRIx64 " != expected %016" PRIx64, r.digest,
                    expected_);
      r.errors.push_back(buf);
    }
    attempted_ += r.attempted;
    failed_ += r.errors.empty() ? r.failed : r.attempted;
    for (const std::string& e : r.errors) {
      std::printf("CHECK FAILED (%s, %s): %s\n", WorkloadName(workload_), label, e.c_str());
      ok_ = false;
    }
  }

  bool ok() const { return ok_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  Workload workload_;
  uint64_t expected_;
  std::string reference_;
  std::string reference_label_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool ok_ = true;
};

struct Metric {
  const char* name;
  double value;
  const char* unit;
  std::string base;  // what the value is measured over, printed beside it
};

void PrintResult(const Checker& check, const std::vector<Metric>& metrics) {
  std::printf("op_fail_frac = %.6g (%" PRIu64 " failed / %" PRIu64 " attempted)\n",
              check.attempted() > 0 ? static_cast<double>(check.failed()) /
                                          static_cast<double>(check.attempted())
                                    : 1.0,
              check.failed(), check.attempted());
  std::printf("correct = %s\n", check.ok() ? "true" : "false");
  // The result format requires attempted >= 1.
  const uint64_t attempted = std::max<uint64_t>(check.attempted(), 1);
  std::string json = std::string("{\"correct\": ") + (check.ok() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(check.failed()) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[192];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name, metrics[i].value, metrics[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

void PrintSimulatedOutputs(Workload w, const RunResult& r) {
  std::printf("simulated outputs (checked, not scored):\n");
  if (w != Workload::kAvmOmp) {
    std::printf("  digest %016" PRIx64 "\n", r.digest);
  }
  // The first lines of the canonical report carry finish time and totals.
  size_t pos = 0;
  for (int line = 0; line < 4 && pos < r.report.size(); ++line) {
    const size_t nl = r.report.find('\n', pos);
    std::printf("  %s\n", r.report.substr(pos, nl - pos).c_str());
    pos = nl == std::string::npos ? r.report.size() : nl + 1;
  }
  for (const char* key : {"mem.sim_fault_latency_us", "cluster.sim_req_p99_us",
                          "cluster.placed_aggregate", "cluster.delayed"}) {
    const auto it = r.counts.find(key);
    if (it != r.counts.end()) {
      std::printf("  %s %.6g\n", key, it->second);
    }
  }
}

int RunEndToEnd(const Args& a, Checker& check) {
  // Closed loop of whole one-worker runs. The two-worker runs are left to
  // --trace 1: their time is not steady enough to gate on (README.md), and
  // every second spent on them here would halve the samples behind wall_s.
  std::vector<double> wall_1w;
  std::vector<double> wall_ref;
  std::vector<double> probe_s;
  std::vector<double> setup;
  std::vector<double> setup_ref;
  std::optional<HostProbe> probe;
  double rss = 0;
  double ref_scale = 1;
  RunResult first;
  const auto t0 = Clock::now();
  double round_s = 0;
  do {
    const auto round_t0 = Clock::now();
    RunResult r = RunWorkload(a.workload, a.seed, 1, nullptr, 0, 0);
    check.Add(wall_1w.empty() ? "run 1w#1" : "run 1w", r);
    if (!probe) {
      // Read before the probe's buffer exists; later runs repeat this run's
      // work and set-ups build part of it, so this is the process's peak.
      rss = PeakRssMiB();
      probe.emplace();
    }
    probe_s.push_back(probe->Run());
    ref_scale = kProbeRefSeconds / probe_s.back();
    wall_1w.push_back(r.wall_s);
    wall_ref.push_back(r.wall_s * ref_scale);
    if (first.report.empty()) {
      first = std::move(r);
    }
    for (size_t i = 0; i < kSetupRepsPerRun; ++i) {
      setup.push_back(SetupOnce(a.workload, a.seed));
      setup_ref.push_back(setup.back() * ref_scale);
    }
    round_s = Since(round_t0);
  } while (KeepGoing(Since(t0), round_s, a.seconds));
  while (setup.size() < kSetupMinReps) {
    setup.push_back(SetupOnce(a.workload, a.seed));
    setup_ref.push_back(setup.back() * ref_scale);
  }

  PrintSimulatedOutputs(a.workload, first);
  std::printf("wall_s     = %s (1 worker%s)\n", Distribution(wall_1w, "s").c_str(),
              a.workload == Workload::kAvmOmp ? ": serial EventLoop" : "");
  std::printf("probe_s    = %s (host-speed probe after each run)\n",
              Distribution(probe_s, "s").c_str());
  std::printf("wall_ref_s = %s (each run x %g s / its probe)\n",
              Distribution(wall_ref, "s").c_str(), kProbeRefSeconds);
  std::printf("setup raw  = %s\n", Distribution(setup, "s").c_str());
  std::printf("setup_s    = %s (reference seconds, as wall_ref_s)\n",
              Distribution(setup_ref, "s").c_str());
  std::printf("peak_rss_mb = %.6g MiB (one process)\n", rss);
  PrintResult(check, {{"wall_ref_s", Median(wall_ref), "s", ""},
                      {"setup_s", Median(setup_ref), "s", ""},
                      {"peak_rss_mb", rss, "MiB", ""}});
  return 0;
}

int RunTraced(const Args& a, Checker& check) {
  SpanLog spans;
  const uint64_t root = spans.Begin("fvbench.traced_run", 0, 0);
  std::vector<double> untraced;
  std::vector<double> traced;
  std::vector<double> wall_2w;
  RunResult first;
  uint64_t run = 0;
  const auto t0 = Clock::now();
  double round_s = 0;
  do {
    const auto round_t0 = Clock::now();
    RunResult u = RunWorkload(a.workload, a.seed, 1, nullptr, 0, 0);
    check.Add(untraced.empty() ? "untraced 1w#1" : "untraced 1w", u);
    untraced.push_back(u.wall_s);
    if (first.report.empty()) {
      first = u;
    }
    ++run;
    RunResult t;
    {
      ScopedSpan sample(&spans, "fvbench.simulation", root, run);
      t = RunWorkload(a.workload, a.seed, 1, &spans, sample.id(), run);
    }
    check.Add("traced 1w", t);
    traced.push_back(t.wall_s);
    RunResult r2 = RunWorkload(a.workload, a.seed, 2, nullptr, 0, 0);
    check.Add("untraced 2w", r2);
    wall_2w.push_back(r2.wall_s);
    round_s = Since(round_t0);
  } while (KeepGoing(Since(t0), round_s, a.seconds));

  const int nodes = WorkloadNodes(a.workload);
  auto probe = [&](const char* name, auto fn) {
    ScopedSpan s(&spans, name, root, 0);
    return fn();
  };
  const Probe heap64 = probe("sim.EventLoop.hold", [&] { return ProbeHeap(64, a.seed); });
  const Probe heap4k = probe("sim.EventLoop.hold", [&] { return ProbeHeap(4096, a.seed); });
  const Probe win64 = probe("sim.ParallelEventLoop.Run", [] { return ProbeWindow(64, 1); });
  const Probe win256 = probe("sim.ParallelEventLoop.Run", [] { return ProbeWindow(256, 1); });
  const Probe win64_2w = probe("sim.ParallelEventLoop.Run", [] { return ProbeWindow(64, 2); });
  const Probe win256_2w = probe("sim.ParallelEventLoop.Run", [] { return ProbeWindow(256, 2); });
  const Probe send = probe("net.Fabric.Send", [&] { return ProbeSend(64, a.seed); });
  const Probe rpc = probe("net.RpcLayer.Call", [&] { return ProbeRpcCall(64, a.seed); });
  const DsmProbe dsm = probe("mem.DsmEngine.Access", [&] { return ProbeDsm(a.seed); });
  const Probe place = probe("cluster.PlacementPolicy.Place", [&] { return ProbePlace(a.seed); });
  // The drain cost at the workload's own partition count, for the share.
  const Probe window = nodes == 64 ? win64 : probe("sim.ParallelEventLoop.Run", [&] {
    return ProbeWindow(nodes, 1);
  });
  spans.End(root);

  const std::map<std::string, double>& c = first.counts;
  auto count = [&c](const char* key) {
    const auto it = c.find(key);
    return it == c.end() ? 0.0 : it->second;
  };
  const double wall_ns = Median(untraced) * 1e9;
  const double events = count("sim.events");
  const double windows = count("sim.windows");
  const double attributed =
      events * heap64.ns_per_op +
      count("net.messages") * std::max(send.ns_per_op - heap64.ns_per_op, 0.0) +
      count("net.rpc_calls") * std::max(rpc.ns_per_op / 2 - send.ns_per_op, 0.0) +
      windows * window.ns_per_op + count("cluster.placements") * place.ns_per_op;

  auto ops = [](const Probe& p) { return "per op over " + std::to_string(p.ops) + " ops"; };
  const std::string from_run = "from the workload run";
  const std::vector<Metric> metrics = {
      {"wall_s", Median(untraced), "s", "untraced " + Distribution(untraced, "s")},
      {"wall_s_2w", Median(wall_2w), "s", Distribution(wall_2w, "s")},
      {"sim.events", events, "count", from_run},
      {"sim.host_ns_per_event", events > 0 ? wall_ns / events : 0, "ns",
       "median untraced wall_s / sim.events"},
      {"sim.heap_ns.d64", heap64.ns_per_op, "ns", ops(heap64)},
      {"sim.heap_ns.d4k", heap4k.ns_per_op, "ns", ops(heap4k)},
      {"sim.windows", windows, "count", from_run},
      {"sim.events_per_window", windows > 0 ? events / windows : 0, "events/window",
       "sim.events / sim.windows"},
      {"sim.cross_events", count("sim.cross_events"), "count", from_run},
      {"sim.window_ns.p64", win64.ns_per_op, "ns", ops(win64)},
      {"sim.window_ns.p256", win256.ns_per_op, "ns", ops(win256)},
      {"sim.window_ns_2w.p64", win64_2w.ns_per_op, "ns", ops(win64_2w)},
      {"sim.window_ns_2w.p256", win256_2w.ns_per_op, "ns", ops(win256_2w)},
      {"sim.window_share", windows * window.ns_per_op / wall_ns, "ratio",
       "sim.windows x window ns at P=" + std::to_string(nodes) + " (" + ops(window) + ") / wall_s"},
      {"sim.partition_skew", c.count("sim.partition_skew") ? count("sim.partition_skew") : 1.0,
       "ratio", "max / mean events per partition (one queue = 1)"},
      {"net.messages", count("net.messages"), "count", from_run},
      {"net.bytes", count("net.bytes"), "bytes", from_run},
      {"net.send_ns", send.ns_per_op, "ns", ops(send)},
      {"net.rpc_calls", count("net.rpc_calls"), "count", from_run},
      {"net.rpc_notifies", count("net.rpc_notifies"), "count", from_run},
      {"net.multicast_rounds", count("net.multicast_rounds"), "count", from_run},
      {"net.rpc_call_ns", rpc.ns_per_op, "ns", ops(rpc)},
      {"net.retransmits", count("net.retransmits"), "count", from_run},
      {"net.send_failures", count("net.send_failures"), "count", from_run},
      {"mem.fault_host_ns", dsm.fault.ns_per_op, "ns", ops(dsm.fault)},
      {"mem.hit_host_ns", dsm.hit.ns_per_op, "ns", ops(dsm.hit)},
      {"storm.remote_reads", count("storm.remote_reads"), "count", from_run},
      {"storm.remote_writes", count("storm.remote_writes"), "count", from_run},
      {"storm.invalidations", count("storm.invalidations"), "count", from_run},
      {"storm.cache_hit_ratio", count("storm.cache_hit_ratio"), "ratio",
       "hits / (hits + remote reads)"},
      {"cluster.placed_aggregate", count("cluster.placed_aggregate"), "count", from_run},
      {"cluster.delayed", count("cluster.delayed"), "count", from_run},
      {"cluster.reclaims", count("cluster.reclaims"), "count", from_run},
      {"cluster.remote_requests", count("cluster.remote_requests"), "count", from_run},
      {"cluster.leases_granted", count("cluster.leases_granted"), "count", from_run},
      {"cluster.leases_revoked", count("cluster.leases_revoked"), "count", from_run},
      {"cluster.place_ns", place.ns_per_op, "ns", ops(place)},
      {"cluster.sim_req_p99_us", count("cluster.sim_req_p99_us"), "us",
       "simulated request latency p99"},
      {"host.attributed_share", attributed / wall_ns, "ratio",
       "sum of layer count x ns/op / median untraced wall_s"},
      {"trace.overhead_share", (Median(traced) - Median(untraced)) / Median(untraced), "ratio",
       "traced " + Distribution(traced, "s") + " vs untraced " + Distribution(untraced, "s")},
  };

  // DsmStats of the run: only avm-omp runs DsmEngine, so these are printed
  // for reading and left out of the result.
  const std::vector<Metric> dsm_counts = {
      {"mem.read_faults", count("mem.read_faults"), "count", from_run},
      {"mem.write_faults", count("mem.write_faults"), "count", from_run},
      {"mem.invalidations", count("mem.invalidations"), "count", from_run},
      {"mem.page_transfers", count("mem.page_transfers"), "count", from_run},
      {"mem.sim_fault_latency_us", count("mem.sim_fault_latency_us"), "us",
       "simulated, mean over mem faults"},
  };

  PrintSimulatedOutputs(a.workload, first);
  for (const std::vector<Metric>* list : {&metrics, &dsm_counts}) {
    for (const Metric& m : *list) {
      std::printf("%-26s %14.6g %-13s %s\n", m.name, m.value, m.unit, m.base.c_str());
    }
  }
  if (!a.spans_path.empty()) {
    if (!spans.WriteJson(a.spans_path)) {
      std::fprintf(stderr, "cannot write spans to %s\n", a.spans_path.c_str());
      return 1;
    }
    std::printf("spans: %zu written to %s\n", spans.size(), a.spans_path.c_str());
  }
  PrintResult(check, metrics);
  return 0;
}

int Main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "fvbench: refusing to report from an unoptimised build\n");
  return 3;
#endif
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    return 2;
  }
  PrintFingerprint(a);
  const uint64_t expected =
      a.expect_digest != 0 ? a.expect_digest : PinnedDigest(a.workload, a.seed);
  char expected_text[80] = "none for this seed (run-to-run identity still checked)";
  if (expected != 0) {
    std::snprintf(expected_text, sizeof(expected_text), "%016" PRIx64, expected);
  }
  std::printf("workload %s seed %" PRIu64 " seconds %g trace %d; expected digest %s\n",
              WorkloadName(a.workload), a.seed, a.seconds, a.trace, expected_text);
  Checker check(a.workload, expected);
  return a.trace == 0 ? RunEndToEnd(a, check) : RunTraced(a, check);
}

}  // namespace
}  // namespace fvbench

int main(int argc, char** argv) { return fvbench::Main(argc, argv); }
