#include "src/workload/npb.h"

#include <algorithm>

#include "src/sim/check.h"

namespace fragvisor {

const std::vector<NpbProfile>& NpbSuite() {
  // alloc_pages / compute ratios follow the class-C serial suite: EP is pure
  // compute; IS is allocation-heavy with a short integer-sort phase; FT has
  // both a large dataset and substantial compute; the pseudo-apps (BT/SP/LU)
  // are long-running with modest datasets.
  static const std::vector<NpbProfile> suite = {
      {"EP", 128, Seconds(2), Micros(50), 2, 0.5},
      {"MG", 16384, Millis(1100), Micros(20), 6, 0.4},
      {"CG", 6144, Millis(1400), Micros(20), 6, 0.3},
      {"FT", 36864, Millis(900), Micros(25), 6, 0.5},
      {"IS", 49152, Millis(350), Micros(10), 4, 0.6},
      {"LU", 4096, Seconds(2), Micros(30), 4, 0.4},
      {"BT", 6144, Millis(2200), Micros(30), 4, 0.4},
      {"SP", 6144, Millis(1900), Micros(30), 4, 0.4},
      {"UA", 4096, Millis(1700), Micros(25), 5, 0.5},
  };
  return suite;
}

const NpbProfile& NpbByName(const std::string& name) {
  for (const NpbProfile& p : NpbSuite()) {
    if (p.name == name) {
      return p;
    }
  }
  FV_CHECK(false);  // unknown benchmark name
  __builtin_unreachable();
}

const char* NpbNames() {
  static const std::string names = [] {
    std::string s;
    for (const NpbProfile& p : NpbSuite()) s += (s.empty() ? "" : "|") + p.name;
    return s;
  }();
  return names.c_str();
}

NpbProfile ScaleNpb(const NpbProfile& profile, double factor) {
  FV_CHECK_GT(factor, 0.0);
  NpbProfile scaled = profile;
  scaled.alloc_pages = std::max<uint64_t>(1, static_cast<uint64_t>(
                                                 static_cast<double>(profile.alloc_pages) * factor));
  scaled.compute_total =
      std::max<TimeNs>(Millis(1), static_cast<TimeNs>(static_cast<double>(profile.compute_total) * factor));
  return scaled;
}

NpbSerialStream::NpbSerialStream(AggregateVm* vm, int vcpu, const NpbProfile& profile,
                                 uint64_t seed)
    : vm_(vm), vcpu_(vcpu), profile_(profile), rng_(seed) {
  FV_CHECK(vm != nullptr);
  // Compute-phase working window: after initialization the dataset is
  // resident wherever this vCPU first touched it, so model it as a
  // node-local window (touches hit; the distributed cost is in the
  // allocation phase and in kernel-shared state).
  working_pages_ = std::min<uint64_t>(profile_.alloc_pages, 512);
  working_first_ = vm_->space().AllocHeapRange(working_pages_, vm_->VcpuNode(vcpu));
}

void NpbSerialStream::Replan() {
  if (!allocated_) {
    allocated_ = true;
    Push(Op::AllocPages(profile_.alloc_pages));
    return;
  }
  if (compute_done_ >= profile_.compute_total) {
    return;  // empty plan => halt
  }
  compute_done_ += profile_.compute_per_iter;
  Push(Op::Compute(profile_.compute_per_iter));
  for (int t = 0; t < profile_.touches_per_iter; ++t) {
    const PageNum page =
        working_first_ + static_cast<uint64_t>(rng_.UniformInt(
                             0, static_cast<int64_t>(working_pages_) - 1));
    if (rng_.Chance(profile_.write_fraction)) {
      Push(Op::MemWrite(page));
    } else {
      Push(Op::MemRead(page));
    }
  }
}

}  // namespace fragvisor
