// NAS Parallel Benchmarks — serial versions, modelled as op streams
// (Figs. 8, 9, 10).
//
// Each profile captures the phase structure that matters on a distributed
// VM: a kernel-mediated allocation/initialization phase (where guest kernel
// data-structure synchronization creates DSM contention — the paper's
// explanation for IS's and FT's sub-linear scaling) followed by a compute
// phase over a private working set. Dataset sizes are scaled down ~5x from
// class C so a full suite sweep stays tractable; ratios between benchmarks
// are preserved.

#ifndef FRAGVISOR_SRC_WORKLOAD_NPB_H_
#define FRAGVISOR_SRC_WORKLOAD_NPB_H_

#include <string>
#include <vector>

#include "src/core/aggregate_vm.h"
#include "src/sim/rng.h"
#include "src/workload/workload.h"

namespace fragvisor {

struct NpbProfile {
  std::string name;
  uint64_t alloc_pages;      // dataset allocated through the guest kernel
  TimeNs compute_total;      // pure computation after initialization
  TimeNs compute_per_iter;   // granularity between memory touches
  int touches_per_iter;      // working-set accesses per iteration
  double write_fraction;     // of those, fraction that are writes
};

// The nine serial NPB kernels/pseudo-apps the paper runs.
const std::vector<NpbProfile>& NpbSuite();

// Lookup by name ("EP", "IS", ...). Aborts on unknown names.
const NpbProfile& NpbByName(const std::string& name);
// NpbSuite()'s names, '|'-separated.
const char* NpbNames();

// Uniformly scales a profile's dataset and compute (benches use this to keep
// sweeps fast; scaling both preserves the alloc/compute ratio that drives
// the figures).
NpbProfile ScaleNpb(const NpbProfile& profile, double factor);

// One serial NPB instance on one vCPU: allocation phase (kernel-mediated),
// then a compute loop over a private, node-local working window.
class NpbSerialStream : public PlannedStream {
 public:
  NpbSerialStream(AggregateVm* vm, int vcpu, const NpbProfile& profile, uint64_t seed);

 protected:
  void Replan() override;

 private:
  AggregateVm* vm_;
  int vcpu_;
  NpbProfile profile_;
  Rng rng_;

  bool allocated_ = false;
  TimeNs compute_done_ = 0;
  PageNum working_first_ = 0;
  uint64_t working_pages_ = 0;
};

}  // namespace fragvisor

#endif  // FRAGVISOR_SRC_WORKLOAD_NPB_H_
