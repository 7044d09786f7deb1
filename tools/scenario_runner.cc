// Versioned scenario suite runner (DESIGN.md §10).
//
// A scenario is a flat JSON file under scenarios/ pinning one deterministic
// simulation configuration to the FNV-1a hash of its canonical report:
//
//   { "name": "storm-lossy-links", "kind": "storm",
//     "nodes": 12, "accesses": 100, "fault_drop": 0.03, "epochs": 2,
//     "compare_threads": 3, "expect": "0x1234abcd5678ef90" }
//
// Kinds:
//   storm  — RunStorm; every StormOptions table key (StormOptionTable(), the
//            `fvsim storm` flags with '_' for '-') configures the run.
//            Report = StormReport().
//   cluster — the multi-tenant marketplace (DESIGN.md §11–12) over the
//            MarketplaceOptionTable() keys; fault schedules are strings such
//            as "fault_crash": "3@7" (node@ms). Report = MarketplaceReport().
//            Both run on "threads" workers (default 1) and take the optional
//            cross-checks "compare_threads" (re-run at another worker count,
//            reports must be byte-equal) and "verify_resume" (snapshot at
//            epoch 1, resume in-process, the resumed report must be
//            byte-equal too).
//   golden — the 10k-page DSM golden trace; keys hints/replicate/adaptive
//            toggle fast paths, "empty_plan" attaches an empty FaultPlan,
//            "snapshot_roundtrip" save/loads the engine mid-trace. Report =
//            GoldenTraceReport().
//   npb    — one NPB multi-process harness run; keys bench/scale/vcpus/seed.
//            Report = end time + integer fault counters.
//
// A key no kind reads, a malformed value or an invalid configuration makes
// the file unusable (exit 2) before anything runs.
//
// Usage:
//   scenario_runner FILE...          run, compare to "expect", exit 0/1
//   scenario_runner --print FILE...  print report + hash (pin generation)
//
// On mismatch the full canonical report is printed so the diff is in the CI
// log, and ci.sh archives it under build-ci/artifacts/.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/cluster/marketplace.h"
#include "src/sim/fault_plan.h"
#include "src/sim/options.h"
#include "src/sim/snapshot.h"
#include "src/workload/dsmstorm.h"
#include "src/workload/goldentrace.h"
#include "src/workload/npb.h"

namespace fragvisor {
namespace {

constexpr OptionLimits kThreads = Between(0, 256);

// Runs a storm or cluster scenario and its optional cross-checks. Returns
// false with `p` in error when the file is unusable, else with *error set
// when a check fails.
template <typename Opts, typename RunConfig, typename Result>
bool RunPinned(KeyValues& p, const OptionTable<Opts>& table,
               Result (*run)(const Opts&, int, const RunConfig&),
               std::string (*report_of)(const Result&), std::string* report, std::string* error) {
  Opts opts;
  ReadOptions(table, p, &opts);
  const int threads = p.Get("threads", 1, kThreads);
  const int other = p.Get("compare_threads", -1, kThreads);
  const bool verify_resume = p.Get("verify_resume", false);
  if (!p.Finish(Validate(opts))) return false;

  *report = report_of(run(opts, threads, RunConfig{}));
  if (other >= 0 && report_of(run(opts, other, RunConfig{})) != *report) {
    *error = "report at --threads " + std::to_string(threads) + " differs from --threads " +
             std::to_string(other);
    return false;
  }
  if (verify_resume) {
    std::string snapshot;
    RunConfig save_cfg;
    save_cfg.snapshot_out = &snapshot;
    save_cfg.snapshot_epoch = 1;
    run(opts, threads, save_cfg);
    RunConfig load_cfg;
    load_cfg.snapshot_in = &snapshot;
    std::string load_error;
    load_cfg.error = &load_error;
    const std::string resumed = report_of(run(opts, threads, load_cfg));
    if (!load_error.empty()) {
      *error = "resume failed: " + load_error;
      return false;
    }
    if (resumed != *report) {
      *error = "resumed report differs from the uninterrupted run";
      return false;
    }
  }
  return true;
}

bool RunGoldenScenario(KeyValues& p, std::string* report, std::string* error) {
  const bool hints = p.Get("hints", false);
  const bool replicate = p.Get("replicate", false);
  const bool adaptive = p.Get("adaptive", false);
  const bool empty_plan = p.Get("empty_plan", false);
  const bool snapshot_roundtrip = p.Get("snapshot_roundtrip", false);
  if (!p.Finish()) return false;
  const auto mutate = [&](DsmEngine::Options& o) {
    o.owner_hints = hints;
    o.read_mostly_replication = replicate;
    o.adaptive_granularity = adaptive;
  };
  FaultPlan plan(0xFEED);
  FaultPlan* attached = empty_plan ? &plan : nullptr;
  const GoldenTraceResult r = RunGoldenTrace(attached, mutate, snapshot_roundtrip);
  if (attached != nullptr && !plan.empty()) {
    *error = "the empty fault plan accreted entries";
    return false;
  }
  *report = GoldenTraceReport(r);
  return true;
}

bool RunNpbScenario(KeyValues& p, std::string* report, std::string*) {
  const std::string name = p.Get<std::string>("bench", "CG", OneOf(NpbNames()));
  const double scale = p.Get("scale", 0.1);
  bench::Setup setup;
  setup.vcpus = p.Get("vcpus", 3);
  const uint64_t seed = p.Get<uint64_t>("seed", 1);
  if (!p.Finish()) return false;
  const NpbProfile profile = ScaleNpb(NpbByName(name), scale);
  bench::FaultReport faults;
  const TimeNs end = bench::RunNpbMultiProcess(setup, profile, seed, nullptr, &faults);
  std::string out;
  const auto line = [&out](const char* key, uint64_t v) {
    out += key;
    out += '=';
    out += std::to_string(v);
    out += '\n';
  };
  line("end_ns", static_cast<uint64_t>(end));
  line("dropped", faults.dropped);
  line("duplicated", faults.duplicated);
  line("delayed", faults.delayed);
  line("crashes", faults.crashes);
  line("restarts", faults.restarts);
  line("retransmits", faults.retransmits);
  line("timeouts", faults.timeouts);
  line("send_failures", faults.send_failures);
  line("dups_suppressed", faults.dups_suppressed);
  line("dsm_retries", faults.dsm_retries);
  line("dsm_absorbed", faults.dsm_absorbed);
  line("dsm_write_aborts", faults.dsm_write_aborts);
  line("dsm_pages_reclaimed", faults.dsm_pages_reclaimed);
  *report = out;
  return true;
}

// --- Driver ---------------------------------------------------------------

bool ReadFile(const std::string& path, std::string* out) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open scenario '%s'\n", path.c_str());
    return false;
  }
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out->append(buf, n);
  }
  std::fclose(f);
  return true;
}

std::string HashHex(uint64_t h) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, h);
  return buf;
}

// 0 = pass, 1 = mismatch/failure, 2 = unusable scenario file.
int RunScenarioFile(const std::string& path, bool print_only) {
  std::string text;
  if (!ReadFile(path, &text)) {
    return 2;
  }
  KeyValues p;
  p.AddFlatJson(text);
  const std::string name = p.Str("name", path);
  const std::string kind = p.Str("kind");
  const std::string expect = p.Str("expect");

  std::string report;
  std::string error;
  bool ok = false;
  if (kind == "storm") {
    ok = RunPinned(p, StormOptionTable(), &RunStormEx, &StormReport, &report, &error);
  } else if (kind == "golden") {
    ok = RunGoldenScenario(p, &report, &error);
  } else if (kind == "npb") {
    ok = RunNpbScenario(p, &report, &error);
  } else if (kind == "cluster") {
    ok = RunPinned(p, MarketplaceOptionTable(), &RunMarketplaceEx, &MarketplaceReport, &report,
                   &error);
  } else {
    p.Fail("kind", "'" + kind + "' is not storm|golden|npb|cluster");
  }
  if (!p.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), p.error().c_str());
    return 2;
  }
  if (!ok) {
    std::fprintf(stderr, "SCENARIO %s FAILED: %s\n", name.c_str(), error.c_str());
    return 1;
  }

  const std::string hash = HashHex(SnapshotHashString(report));
  if (print_only) {
    std::printf("# scenario %s (%s)\n%s%s\n", name.c_str(), kind.c_str(), report.c_str(),
                hash.c_str());
    return 0;
  }
  if (expect.empty()) {
    std::fprintf(stderr, "%s: no \"expect\" pin; generate one with --print\n", path.c_str());
    return 2;
  }
  if (hash != expect) {
    std::printf("SCENARIO %s MISMATCH: expected %s got %s\ncanonical report:\n%s",
                name.c_str(), expect.c_str(), hash.c_str(), report.c_str());
    return 1;
  }
  std::printf("SCENARIO %s OK %s\n", name.c_str(), hash.c_str());
  return 0;
}

}  // namespace
}  // namespace fragvisor

int main(int argc, char** argv) {
  bool print_only = false;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--print") {
      print_only = true;
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr, "usage: scenario_runner [--print] FILE...\n");
    return 2;
  }
  int worst = 0;
  for (const std::string& f : files) {
    const int rc = fragvisor::RunScenarioFile(f, print_only);
    worst = std::max(worst, rc);
  }
  return worst;
}
