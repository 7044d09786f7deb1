// The Aggregate VM: a single guest distributed over VM slices on multiple
// physical nodes (Sec. 4-6).
//
// An AggregateVm owns the guest pseudo-physical address space (coherent via
// the DSM engine), the distributed vCPUs, the delegated devices and the
// guest-local socket layer, and implements GuestContext for its vCPUs. It
// provides the mobility operation the paper contributes: live cross-node
// vCPU migration (register dump -> state transfer -> resume), with runtime
// NUMA-topology updates to the guest.
//
// The same class expresses all three evaluated systems:
//  * FragVisor Aggregate VM  — DistributedPlacement + optimized guest;
//  * overcommitted VM        — OvercommitPlacement (vCPUs timeshare pCPUs;
//                              all DSM accesses hit locally);
//  * GiantVM distributed VM  — Platform::kGiantVm (user-space DSM costs,
//                              single-queue no-bypass IO, vanilla guest, no
//                              mobility).

#ifndef FRAGVISOR_SRC_CORE_AGGREGATE_VM_H_
#define FRAGVISOR_SRC_CORE_AGGREGATE_VM_H_

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/guest_kernel.h"
#include "src/core/vm_config.h"
#include "src/cpu/guest_context.h"
#include "src/cpu/vcpu.h"
#include "src/host/lease_manager.h"
#include "src/host/node.h"
#include "src/io/console.h"
#include "src/io/virtio_blk.h"
#include "src/io/virtio_net.h"
#include "src/mem/dsm.h"
#include "src/mem/gpa_space.h"

namespace fragvisor {

class AggregateVm : public GuestContext {
 public:
  AggregateVm(Cluster* cluster, AggregateVmConfig config);
  // Releases this VM's tenant shares on every node it borrowed from.
  ~AggregateVm() override;

  AggregateVm(const AggregateVm&) = delete;
  AggregateVm& operator=(const AggregateVm&) = delete;

  const AggregateVmConfig& config() const { return config_; }
  const CostModel& costs() const { return costs_; }
  int num_vcpus() const { return config_.num_vcpus(); }
  EventLoop& loop();

  // --- Lifecycle ---

  // Assigns the op stream vCPU `vcpu` executes. Must precede Boot().
  void SetWorkload(int vcpu, std::unique_ptr<OpStream> stream);

  // Creates and starts the vCPU threads: the bootstrap slice spawns them and
  // distributes them to companion slices (remote creation at boot).
  void Boot();

  bool booted() const { return booted_; }
  bool AllFinished() const;
  int finished_vcpus() const { return finished_vcpus_; }
  TimeNs boot_time() const { return boot_time_; }

  // --- Mobility (FragVisor only) ---

  // Live-migrates a vCPU to (dest_node, dest_pcpu); `done` runs once it is
  // resumed at the destination. Updates the replicated location table and,
  // for NUMA-aware guests, triggers a runtime topology update.
  void MigrateVcpu(int vcpu, NodeId dest_node, int dest_pcpu, std::function<void()> done);

  const Summary& migration_latency_ns() const { return migration_latency_ns_; }
  uint64_t numa_topology_updates() const { return numa_updates_.value(); }

  // Failover support: resumes an already-paused vCPU at a (possibly new)
  // location, updating the location table without the live-migration
  // protocol — the state comes from a restored checkpoint image.
  void RestartVcpuAt(int vcpu, NodeId node, int pcpu);

  // --- Leases & recovery ---

  // Moves every delegated I/O backend currently on `from` (vhost-blk,
  // primary NIC, distributed NICs) to `to`. Used by partial recovery when a
  // backend slice dies and by lease handbacks.
  void RedelegateBackends(NodeId from, NodeId to);

  // Covers every resource this VM borrows from a non-bootstrap slice —
  // remotely placed vCPUs, memory slices and remotely owned pages, delegated
  // I/O backends — with a lease from `leases`. On expiry or revocation the
  // resource is handed back to the bootstrap slice in an orderly fashion
  // (vCPU migrates home, owned pages migrate home, backend redelegates);
  // on loss (lender died) nothing happens here — failure recovery re-homes
  // the resource surgically. Returns the number of leases requested.
  int StartLeaseProtection(LeaseManager* leases);

  // --- Slice introspection ---

  // Per-node view of this VM — the paper's "VM slice" unit. A slice may
  // contribute vCPUs, memory, devices, or any combination.
  struct SliceReport {
    NodeId node = kInvalidNode;
    bool bootstrap = false;       // hosts the directory / boot image
    int vcpus = 0;                // vCPUs currently running here
    uint64_t pages_owned = 0;     // guest pages this slice owns
    uint64_t pages_resident = 0;  // incl. read replicas
    uint64_t dsm_faults = 0;      // faults initiated from this slice
    bool has_nic = false;
  };

  // Reports every node currently contributing resources to the VM.
  std::vector<SliceReport> Slices() const;

  // --- Memory borrowing ---

  // Allocates `count` pages of far memory on the configured memory-only
  // slices (round-robin). Guest accesses reach them through the DSM: a
  // remote-memory tier instead of swapping to local disk. Requires
  // config.memory_slices to be non-empty.
  PageNum AllocFarMemory(uint64_t count);

  // --- Introspection ---

  VCpu& vcpu(int i);
  const VCpu& vcpu(int i) const;
  NodeId VcpuNode(int vcpu) const;
  // Distinct nodes currently hosting at least one vCPU.
  std::vector<NodeId> NodesInUse() const;

  DsmEngine& dsm() { return *dsm_; }
  const DsmEngine& dsm() const { return *dsm_; }
  GuestAddressSpace& space() { return *space_; }
  GuestKernel& guest_kernel() { return *guest_kernel_; }
  VirtioNetDev* net() { return net_.get(); }
  VirtioBlkDev* blk() { return blk_.get(); }
  ConsoleDev* console() { return console_.get(); }

  // Distributed I/O: all NICs of this VM (index 0 = the primary device on
  // the bootstrap/backend slice, then one per extra_nic_nodes entry).
  size_t num_nics() const { return 1 + extra_nets_.size(); }
  VirtioNetDev* nic(size_t i);
  // The NIC whose backend is nearest to `vcpu` right now (the guest's bonded
  // interface routing decision).
  VirtioNetDev* NearestNic(int vcpu);

  // --- GuestContext ---
  bool MemAccess(NodeId node, PageNum page, bool is_write, std::function<void()> done) override;
  bool MemWouldHit(NodeId node, PageNum page, bool is_write) const override;
  void ExpandAlloc(int vcpu_id, uint64_t count, std::deque<Op>* out) override;
  void SocketSend(int from_vcpu, int to_vcpu, uint64_t bytes, std::function<void()> done) override;
  bool SocketRecv(int vcpu, std::function<void()> done) override;
  void NetSend(int vcpu, uint64_t bytes, std::function<void()> done) override;
  bool NetRecv(int vcpu, std::function<void()> done) override;
  bool PollAny(int vcpu, std::function<void()> done) override;
  void BlkWrite(int vcpu, uint64_t bytes, std::function<void()> done) override;
  void BlkRead(int vcpu, uint64_t bytes, std::function<void()> done) override;

  // Pending-input probes (used by event-driven server workloads).
  bool HasNetInput(int vcpu) const;
  bool HasSocketInput(int vcpu) const;

  // Debug: the wait mode a vCPU's pending recv registered (0 none, 1 net,
  // 2 socket, 3 any).
  int DebugWaitMode(int vcpu) const { return static_cast<int>(wait_mode_[static_cast<size_t>(vcpu)]); }

 private:
  enum class InboxType : uint8_t { kNet, kSocket };
  struct InboxItem {
    InboxType type = InboxType::kNet;
    uint64_t bytes = 0;
    int from = -1;
    // Guest buffer pages the consumer still has to copy through the DSM.
    PageNum copy_first = 0;
    uint64_t copy_pages = 0;
  };
  enum class WaitMode : uint8_t { kNone, kNet, kSocket, kAny };

  // Returns a leased resource to the bootstrap slice (lease expired/revoked).
  void OrderlyHandback(const Lease& lease, NodeId home);

  // Records this VM's footprint in each contributing node's TenantLedger,
  // keyed by config_.vm_id: one vCPU slot per placement entry, the guest
  // address space split across the memory-bearing slices, one io_backend
  // share per delegated device backend. Uses the unchecked reservation path:
  // legacy single-VM configs may deliberately overcommit a node.
  void RegisterTenantShares();

  void DeliverInbox(int vcpu, InboxItem item);
  bool ConsumeInbox(int vcpu, InboxType type);
  // Charges the consumed item's copy-out to the consuming vCPU (FragVisor's
  // kernel DSM faults synchronously on the consumer).
  void ChargeCopyOut(int vcpu, const InboxItem& item);
  void NotifyVcpu(NodeId from_node, int to_vcpu, std::function<void()> then);

  Cluster* cluster_;
  AggregateVmConfig config_;
  CostModel costs_;  // possibly adjusted by the GiantVM profile

  std::unique_ptr<DsmEngine> dsm_;
  std::unique_ptr<GuestAddressSpace> space_;
  std::unique_ptr<GuestKernel> guest_kernel_;
  std::unique_ptr<VirtioNetDev> net_;
  std::vector<std::unique_ptr<VirtioNetDev>> extra_nets_;  // distributed I/O
  std::unique_ptr<VirtioBlkDev> blk_;
  std::unique_ptr<ConsoleDev> console_;

  std::vector<std::unique_ptr<OpStream>> streams_;
  std::vector<std::unique_ptr<VCpu>> vcpus_;
  std::vector<NodeId> vcpu_node_;  // replicated location table

  std::vector<std::deque<InboxItem>> inbox_;
  std::vector<WaitMode> wait_mode_;
  std::vector<std::function<void()>> wait_cb_;

  bool booted_ = false;
  size_t next_memory_slice_ = 0;
  TimeNs boot_time_ = 0;
  int finished_vcpus_ = 0;
  Summary migration_latency_ns_;
  Counter numa_updates_;
};

}  // namespace fragvisor

#endif  // FRAGVISOR_SRC_CORE_AGGREGATE_VM_H_
