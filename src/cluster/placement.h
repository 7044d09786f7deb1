// Cluster placement policies (DESIGN.md §11).
//
// The single-VM schedulers in src/sched/ answer "where do one VM's vCPUs
// go" against a private capacity vector. Here their two strategies are
// lifted into pluggable cluster policies that operate on the live per-node
// free/borrowable vectors the orchestrator derives from the TenantLedgers:
//
//  * fragbff — best-fit-first with fragment aggregation (sched/fragbff's
//    kMinFragmentation): place whole on the tightest-fitting single node;
//    when nothing fits whole, aggregate the smallest usable fragments so
//    full nodes stay available for future whole placements.
//  * harvest — harvest-aware scoring (sched/harvest's idle-capacity view):
//    take the largest idle fragments first, spanning the fewest nodes, the
//    way a harvest scheduler steers work at the most-idle machines.
//
// A policy returns a slot allocation only; memory placement (home first,
// overflow borrowed under lease) is the orchestrator's job.

#ifndef FRAGVISOR_SRC_CLUSTER_PLACEMENT_H_
#define FRAGVISOR_SRC_CLUSTER_PLACEMENT_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/net/fabric.h"

namespace fragvisor {

// The orchestrator's live view of one node, derived from its TenantLedger.
struct NodeCapacityView {
  NodeId node = kInvalidNode;
  int free_vcpus = 0;
  uint64_t free_mem = 0;
  int vcpu_capacity = 0;
  uint64_t mem_capacity = 0;
  int tenants = 0;
};

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;
  virtual const char* name() const = 0;

  // Chooses a {node -> vCPU slots} allocation covering `vcpus` slots, where
  // every slot carries `mem_per_slot` bytes the same node must also host (a
  // slice hosts its own memory): a node's usable capacity is
  // min(free_vcpus, free_mem / mem_per_slot). Returns an empty map when the
  // cluster cannot host the VM right now. Deterministic: a pure function of
  // (nodes, vcpus, mem_per_slot).
  virtual std::map<NodeId, int> Place(const std::vector<NodeCapacityView>& nodes,
                                      int vcpus, uint64_t mem_per_slot) = 0;
};

// The policy names MakePlacementPolicy accepts, '|'-separated.
inline constexpr const char* kPlacementPolicies = "fragbff|harvest";

// One of kPlacementPolicies; returns nullptr for anything else.
std::unique_ptr<PlacementPolicy> MakePlacementPolicy(const std::string& name);

}  // namespace fragvisor

#endif  // FRAGVISOR_SRC_CLUSTER_PLACEMENT_H_
