#include "src/net/fabric.h"

#include <algorithm>
#include <memory>

#include "src/net/capture.h"
#include "src/sim/check.h"

namespace fragvisor {

const char* MsgKindName(MsgKind kind) {
  switch (kind) {
    case MsgKind::kDsmReadReq:
      return "dsm_read_req";
    case MsgKind::kDsmWriteReq:
      return "dsm_write_req";
    case MsgKind::kDsmPageData:
      return "dsm_page_data";
    case MsgKind::kDsmInvalidate:
      return "dsm_invalidate";
    case MsgKind::kDsmAck:
      return "dsm_ack";
    case MsgKind::kIpi:
      return "ipi";
    case MsgKind::kTlbShootdown:
      return "tlb_shootdown";
    case MsgKind::kIoDoorbell:
      return "io_doorbell";
    case MsgKind::kIoPayload:
      return "io_payload";
    case MsgKind::kIoCompletion:
      return "io_completion";
    case MsgKind::kVcpuMigration:
      return "vcpu_migration";
    case MsgKind::kCheckpointData:
      return "checkpoint_data";
    case MsgKind::kControl:
      return "control";
    case MsgKind::kLease:
      return "lease";
    case MsgKind::kDsmOwnerNotify:
      return "dsm_owner_notify";
    case MsgKind::kCount:
      break;
  }
  return "unknown";
}

LinkParams LinkParams::InfiniBand56G() {
  return LinkParams{
      .latency = Nanos(1500),
      .bytes_per_second = 56e9 / 8.0,
      // Posting an RDMA read verb: WQE build + doorbell, far below the
      // kernel-mediated page-fault handler it replaces.
      .one_sided_setup = Nanos(250),
  };
}

LinkParams LinkParams::Ethernet1G() {
  return LinkParams{
      .latency = Micros(100),
      .bytes_per_second = 1e9 / 8.0,
      // Software-emulated one-sided read (SoftRoCE class).
      .one_sided_setup = Micros(20),
  };
}

namespace {

// splitmix64: the repo-standard deterministic mixer (cf. workload/dsmstorm).
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Nodes per dense link table: above this the O(n^2) table would dominate
// memory and the map wins.
constexpr int kDenseLinkNodes = 512;

}  // namespace

int PageCompressClass(uint64_t seed, uint64_t page) {
  return static_cast<int>(SplitMix64(seed ^ (page * 0x9e3779b97f4a7c15ull)) & 3u);
}

uint64_t CompressedPayloadBytes(uint64_t seed, uint64_t page, uint64_t payload) {
  const uint64_t keep = 4u - static_cast<uint64_t>(PageCompressClass(seed, page));
  return payload * keep / 4u;
}

uint64_t DeltaPayloadBytes(uint64_t payload, uint64_t versions_behind) {
  const uint64_t delta = payload * versions_behind / 16u;
  return delta < payload ? delta : payload;
}

int Fabric::EcmpPlane(NodeId src, NodeId dst, int planes) {
  FV_CHECK_GT(planes, 0);
  const uint64_t pair = (static_cast<uint64_t>(static_cast<uint32_t>(src)) << 32) |
                        static_cast<uint64_t>(static_cast<uint32_t>(dst));
  return static_cast<int>(SplitMix64(pair) % static_cast<uint64_t>(planes));
}

TimeNs Fabric::MinEffectiveLatency(const TopologyConfig& topology, const LinkParams& defaults,
                                   int num_nodes) {
  if (!topology.fat_tree()) {
    return defaults.latency;
  }
  // A same-pod pair exists iff some edge switch has two nodes; its effective
  // latency is the plain link latency. Otherwise every pair pays the core hop.
  const bool same_pod_pair = topology.pod_size >= 2 && num_nodes >= 2;
  return same_pod_pair ? defaults.latency : defaults.latency + defaults.latency;
}

void FabricStats::Account(MsgKind kind, uint64_t size) {
  const auto idx = static_cast<size_t>(kind);
  messages[idx].Add(1);
  bytes[idx].Add(size);
  total_messages.Add(1);
  total_bytes.Add(size);
}

void FabricStats::Accumulate(const FabricStats& other) {
  for (size_t i = 0; i < messages.size(); ++i) {
    messages[i].Accumulate(other.messages[i]);
    bytes[i].Accumulate(other.bytes[i]);
  }
  total_messages.Accumulate(other.total_messages);
  total_bytes.Accumulate(other.total_bytes);
}

TimeNs WireTime(const LinkParams& params, uint64_t size) {
  FV_CHECK_GT(params.bytes_per_second, 0.0);
  return FromSeconds(static_cast<double>(size) / params.bytes_per_second);
}

void Fabric::InitTopologyState() {
  if (topology_.fat_tree()) {
    FV_CHECK_GT(topology_.pod_size, 0);
    FV_CHECK_GE(topology_.oversub, 1.0);
    FV_CHECK_GT(topology_.core_planes, 0);
    uplink_busy_.assign(static_cast<size_t>(num_nodes_), 0);
    core_busy_.assign(static_cast<size_t>(num_nodes_) * static_cast<size_t>(topology_.core_planes),
                      0);
  }
  if (num_nodes_ <= kDenseLinkNodes) {
    LinkState blank;
    blank.params = defaults_;
    dense_links_.assign(static_cast<size_t>(num_nodes_) * static_cast<size_t>(num_nodes_), blank);
  }
}

Fabric::Fabric(EventLoop* loop, int num_nodes, LinkParams defaults, TopologyConfig topology)
    : loop_(loop), num_nodes_(num_nodes), defaults_(defaults), topology_(topology) {
  FV_CHECK(loop != nullptr);
  FV_CHECK_GT(num_nodes, 0);
  InitTopologyState();
  retry_stats_.Init(num_nodes);
}

Fabric::Fabric(ParallelEventLoop* ploop, int num_nodes, LinkParams defaults,
               TopologyConfig topology)
    : loop_(nullptr), ploop_(ploop), num_nodes_(num_nodes), defaults_(defaults),
      topology_(topology) {
  FV_CHECK(ploop != nullptr);
  FV_CHECK_GT(num_nodes, 0);
  FV_CHECK_EQ(ploop->num_partitions(), num_nodes);
  // Conservative-synchronization soundness: no message may arrive sooner
  // than one lookahead after it was sent. The bound is the topology's minimum
  // *effective* first-hop latency (an all-cross-pod fat-tree legitimately
  // supports a lookahead larger than the raw link latency).
  FV_CHECK_LE(ploop->lookahead(), MinEffectiveLatency(topology, defaults, num_nodes));
  InitTopologyState();
  retry_stats_.Init(num_nodes);
  shard_stats_.assign(static_cast<size_t>(num_nodes), FabricStats());
  shard_retry_.resize(static_cast<size_t>(num_nodes));
  for (RetryStats& r : shard_retry_) {
    r.Init(num_nodes);
  }
  // Pre-create every directed link: links_ is then never mutated during a
  // run, so concurrent LinkFor lookups from different partitions are reads.
  // (The dense table is already fully materialized at construction.)
  if (dense_links_.empty()) {
    for (NodeId s = 0; s < num_nodes; ++s) {
      for (NodeId d = 0; d < num_nodes; ++d) {
        if (s != d) {
          LinkFor(s, d);
        }
      }
    }
  }
}

void Fabric::ValidateNode(NodeId n) const {
  FV_CHECK_GE(n, 0);
  FV_CHECK_LT(n, num_nodes_);
}

Fabric::LinkState& Fabric::LinkFor(NodeId src, NodeId dst) {
  if (!dense_links_.empty()) {
    return dense_links_[static_cast<size_t>(src) * static_cast<size_t>(num_nodes_) +
                        static_cast<size_t>(dst)];
  }
  auto [it, inserted] = links_.try_emplace({src, dst});
  if (inserted) {
    it->second.params = defaults_;
  }
  return it->second;
}

void Fabric::SetLinkParams(NodeId src, NodeId dst, LinkParams params) {
  ValidateNode(src);
  ValidateNode(dst);
  if (ploop_ != nullptr) {
    // Per-pair effective first-hop latency must still cover the lookahead;
    // cross-pod pairs get the core hop's propagation on top of the pair link.
    FV_CHECK_GE(params.latency + CrossPodExtra(src, dst), ploop_->lookahead());
  }
  LinkFor(src, dst).params = params;
}

void Fabric::AttachFaultPlan(FaultPlan* plan, RetryPolicy policy, bool arm) {
  FV_CHECK(plan != nullptr);
  FV_CHECK(plan_ == nullptr);
  FV_CHECK_GT(policy.ack_grace, 0);
  FV_CHECK_GE(policy.max_grace, policy.ack_grace);
  FV_CHECK_GT(policy.max_attempts, 0);
  plan_ = plan;
  policy_ = policy;
  if (ploop_ != nullptr) {
    // The parallel reliable channel draws perturbations from the sending
    // partition, which requires one independent RNG stream per node.
    FV_CHECK(plan_->per_node_streams());
    if (arm) {
      plan_->ArmParallel(ploop_);
    }
    return;
  }
  if (arm) {
    plan_->Arm(loop_);
  }
}

void Fabric::CaptureDelivery(NodeId src, NodeId dst, MsgKind kind, uint64_t size, TimeNs time,
                             TimeNs receiver_delay) {
  capture_->Record(src, dst, kind, size, time, receiver_delay);
}

bool Fabric::NodeUp(NodeId node) const {
  ValidateNode(node);
  if (plan_ == nullptr) {
    return true;
  }
  const TimeNs now = ploop_ != nullptr ? ploop_->partition(node)->now() : loop_->now();
  return plan_->NodeUp(node, now);
}

TimeNs Fabric::WireArrival(NodeId src, NodeId dst, LinkState& link, uint64_t size, TimeNs now) {
  const TimeNs start = std::max(now, link.busy_until);
  const TimeNs depart = start + WireTime(link.params, size);
  link.busy_until = depart;
  if (SamePod(src, dst)) {
    // Mesh, or both endpoints under one edge switch: the seed-era math,
    // byte for byte.
    return depart + link.params.latency;
  }
  // Cross-pod fat-tree path: after the pair link (NIC + edge port), the
  // message serializes through the sender's pod uplink at edge bandwidth and
  // then its ECMP-selected core plane at edge bandwidth / oversub. Horizons
  // are monotone and src-indexed: concurrent partitions never share them, and
  // arrivals per directed pair stay non-decreasing (the plane choice is a
  // stable hash of the pair).
  TimeNs& uplink = uplink_busy_[static_cast<size_t>(src)];
  const TimeNs uplink_depart = std::max(depart, uplink) + WireTime(link.params, size);
  uplink = uplink_depart;
  LinkParams core = link.params;
  core.bytes_per_second = link.params.bytes_per_second / topology_.oversub;
  const int plane = EcmpPlane(src, dst, topology_.core_planes);
  TimeNs& core_horizon =
      core_busy_[static_cast<size_t>(src) * static_cast<size_t>(topology_.core_planes) +
                 static_cast<size_t>(plane)];
  const TimeNs core_depart = std::max(uplink_depart, core_horizon) + WireTime(core, size);
  core_horizon = core_depart;
  return core_depart + link.params.latency + CrossPodExtra(src, dst);
}

void Fabric::Send(NodeId src, NodeId dst, MsgKind kind, uint64_t size, DeliveryFn&& on_delivery,
                  TimeNs receiver_delay, DeliveryFn&& on_fail, DeliveryFn&& on_settle) {
  ValidateNode(src);
  ValidateNode(dst);
  FV_CHECK(on_delivery != nullptr);
  if (ploop_ != nullptr) {
    SendParallel(src, dst, kind, size, std::move(on_delivery), receiver_delay,
                 std::move(on_fail), std::move(on_settle));
    return;
  }
  // Settle notifications exist for sender-partition-local protocols; serial
  // callers see delivery directly and must not pass one.
  FV_CHECK(on_settle == nullptr);
  if (src == dst) {
    // Loopback never hits the wire (and never faults): deliver in-order at
    // the current time.
    if (receiver_delay > 0) {
      loop_->ScheduleRelay(loop_->now(), receiver_delay, std::move(on_delivery));
    } else {
      loop_->ScheduleAfter(0, std::move(on_delivery));
    }
    return;
  }
  if (plan_ == nullptr) {
    LinkState& link = LinkFor(src, dst);
    stats_.Account(kind, size);
    const TimeNs arrival = WireArrival(src, dst, link, size, loop_->now());
    if (capture_ != nullptr) {
      CaptureDelivery(src, dst, kind, size, arrival, receiver_delay);
    }
    if (receiver_delay > 0) {
      loop_->ScheduleRelay(arrival, receiver_delay, std::move(on_delivery));
    } else {
      loop_->ScheduleAt(arrival, std::move(on_delivery));
    }
    return;
  }
  const uint32_t slot = AllocPending();
  Pending& p = pending_[slot];
  p.src = src;
  p.dst = dst;
  p.kind = kind;
  p.size = size;
  p.receiver_delay = receiver_delay;
  p.on_delivery = std::move(on_delivery);
  p.on_fail = std::move(on_fail);
  Attempt(MakePendingId(slot, p.gen));
}

uint32_t Fabric::AllocPending() {
  if (pending_free_head_ != kNpos) {
    const uint32_t slot = pending_free_head_;
    pending_free_head_ = pending_[slot].next_free;
    pending_[slot].next_free = kNpos;
    return slot;
  }
  pending_.emplace_back();
  return static_cast<uint32_t>(pending_.size() - 1);
}

void Fabric::FreePending(uint32_t slot) {
  Pending& p = pending_[slot];
  p.on_delivery = nullptr;
  p.on_fail = nullptr;
  p.attempts = 0;
  p.copies_in_flight = 0;
  p.delivered = false;
  p.failed = false;
  p.timer = kInvalidEventId;
  ++p.gen;
  p.next_free = pending_free_head_;
  pending_free_head_ = slot;
}

Fabric::Pending* Fabric::PendingFor(PendingId id, uint32_t* slot_out) {
  const uint32_t slot = static_cast<uint32_t>(id & 0xffffffffu) - 1;
  FV_CHECK_LT(slot, pending_.size());
  Pending& p = pending_[slot];
  if (p.gen != static_cast<uint32_t>(id >> 32)) {
    return nullptr;  // slot was retired and reused; the copy is a ghost
  }
  if (slot_out != nullptr) {
    *slot_out = slot;
  }
  return &p;
}

void Fabric::MaybeReleasePending(uint32_t slot) {
  Pending& p = pending_[slot];
  if ((p.delivered || p.failed) && p.copies_in_flight == 0) {
    FreePending(slot);
  }
}

TimeNs Fabric::GraceFor(int attempt) const {
  FV_CHECK_GE(attempt, 1);
  const int shift = std::min(attempt - 1, 20);
  return std::min(policy_.ack_grace << shift, policy_.max_grace);
}

void Fabric::Attempt(PendingId id) {
  uint32_t slot = 0;
  Pending* p = PendingFor(id, &slot);
  FV_CHECK(p != nullptr);
  ++p->attempts;
  const TimeNs now = loop_->now();
  if (!plan_->NodeUp(p->src, now)) {
    // The sender itself is down; nothing reaches the wire.
    FailPending(id);
    return;
  }
  LinkState& link = LinkFor(p->src, p->dst);
  stats_.Account(p->kind, p->size);
  const TimeNs base_arrival = WireArrival(p->src, p->dst, link, p->size, now);
  bool lost = plan_->LinkCut(p->src, p->dst, now) || !plan_->NodeUp(p->dst, base_arrival);
  FaultPlan::Perturbation pert;
  if (lost) {
    plan_->mutable_stats().messages_dropped.Add();
  } else {
    pert = plan_->Perturb(p->src, p->dst, now);
    lost = pert.drop;
  }
  if (!lost) {
    TimeNs arrival = std::max(base_arrival + pert.extra_delay, link.last_arrival);
    link.last_arrival = arrival;
    ++p->copies_in_flight;
    loop_->ScheduleAt(arrival, [this, id] { DeliverReliable(id); });
    if (pert.duplicate) {
      const TimeNs dup_arrival = std::max(arrival + pert.duplicate_lag, link.last_arrival);
      link.last_arrival = dup_arrival;
      ++p->copies_in_flight;
      loop_->ScheduleAt(dup_arrival, [this, id] { DeliverReliable(id); });
    }
  }
  // The retransmit clock runs against the unperturbed schedule: the sender
  // knows the link and knows when the ack should have been back.
  p->timer = loop_->ScheduleAt(base_arrival + GraceFor(p->attempts),
                               [this, id] { OnRetryTimeout(id); });
}

void Fabric::DeliverReliable(PendingId id) {
  uint32_t slot = 0;
  Pending* p = PendingFor(id, &slot);
  if (p == nullptr) {
    stale_deliveries_.Add();
    return;
  }
  --p->copies_in_flight;
  if (p->delivered || p->failed) {
    // A duplicate or a straggler from an earlier attempt; the receiver has
    // seen this request id already (or the sender gave up on it).
    retry_stats_.dups_suppressed.Add(p->dst);
    MaybeReleasePending(slot);
    return;
  }
  p->delivered = true;
  if (capture_ != nullptr) {
    // Accept time IS loop_->now(): DeliverReliable runs at the copy's
    // arrival instant, before any receiver_delay hop.
    CaptureDelivery(p->src, p->dst, p->kind, p->size, loop_->now(), p->receiver_delay);
  }
  if (p->timer != kInvalidEventId) {
    loop_->Cancel(p->timer);
    p->timer = kInvalidEventId;
  }
  DeliveryFn cb = std::move(p->on_delivery);
  const TimeNs receiver_delay = p->receiver_delay;
  MaybeReleasePending(slot);
  if (receiver_delay > 0) {
    loop_->ScheduleAfter(receiver_delay, std::move(cb));
  } else {
    cb();
  }
}

void Fabric::OnRetryTimeout(PendingId id) {
  uint32_t slot = 0;
  Pending* p = PendingFor(id, &slot);
  FV_CHECK(p != nullptr);  // the timer is cancelled before the slot retires
  p->timer = kInvalidEventId;
  retry_stats_.timeouts.Add(p->src);
  if (p->attempts >= policy_.max_attempts) {
    FailPending(id);
    return;
  }
  retry_stats_.retransmits.Add(p->src);
  Attempt(id);
}

void Fabric::FailPending(PendingId id) {
  uint32_t slot = 0;
  Pending* p = PendingFor(id, &slot);
  FV_CHECK(p != nullptr);
  retry_stats_.send_failures.Add(p->src);
  p->failed = true;
  if (p->timer != kInvalidEventId) {
    loop_->Cancel(p->timer);
    p->timer = kInvalidEventId;
  }
  if (p->on_fail != nullptr) {
    // Asynchronously, so a failure surfacing inside Send() cannot reenter the
    // caller mid-construction.
    loop_->ScheduleAfter(0, std::move(p->on_fail));
  }
  p->on_fail = nullptr;
  MaybeReleasePending(slot);
}

void Fabric::SendDatagram(NodeId src, NodeId dst, MsgKind kind, uint64_t size,
                          DeliveryFn&& on_delivery, TimeNs receiver_delay) {
  ValidateNode(src);
  ValidateNode(dst);
  FV_CHECK(on_delivery != nullptr);
  if (ploop_ != nullptr) {
    SendDatagramParallel(src, dst, kind, size, std::move(on_delivery), receiver_delay);
    return;
  }
  if (src == dst) {
    if (receiver_delay > 0) {
      loop_->ScheduleRelay(loop_->now(), receiver_delay, std::move(on_delivery));
    } else {
      loop_->ScheduleAfter(0, std::move(on_delivery));
    }
    return;
  }
  const TimeNs now = loop_->now();
  if (plan_ != nullptr && !plan_->NodeUp(src, now)) {
    return;  // a crashed node emits nothing, and nobody is told
  }
  LinkState& link = LinkFor(src, dst);
  stats_.Account(kind, size);
  const TimeNs base_arrival = WireArrival(src, dst, link, size, now);
  if (plan_ == nullptr) {
    if (capture_ != nullptr) {
      CaptureDelivery(src, dst, kind, size, base_arrival, receiver_delay);
    }
    if (receiver_delay > 0) {
      loop_->ScheduleRelay(base_arrival, receiver_delay, std::move(on_delivery));
    } else {
      loop_->ScheduleAt(base_arrival, std::move(on_delivery));
    }
    return;
  }
  bool lost = plan_->LinkCut(src, dst, now) || !plan_->NodeUp(dst, base_arrival);
  FaultPlan::Perturbation pert;
  if (lost) {
    plan_->mutable_stats().messages_dropped.Add();
  } else {
    pert = plan_->Perturb(src, dst, now);
    lost = pert.drop;
  }
  if (lost) {
    return;
  }
  TimeNs arrival = std::max(base_arrival + pert.extra_delay, link.last_arrival);
  link.last_arrival = arrival;
  if (capture_ != nullptr) {
    CaptureDelivery(src, dst, kind, size, arrival, receiver_delay);
  }
  if (!pert.duplicate) {
    if (receiver_delay > 0) {
      loop_->ScheduleRelay(arrival, receiver_delay, std::move(on_delivery));
    } else {
      loop_->ScheduleAt(arrival, std::move(on_delivery));
    }
    return;
  }
  // Duplicated datagram: the callback fires twice. InlineFunction is
  // move-only, so both copies share one heap slot.
  auto shared = std::make_shared<DeliveryFn>(std::move(on_delivery));
  const TimeNs dup_arrival = std::max(arrival + pert.duplicate_lag, link.last_arrival);
  link.last_arrival = dup_arrival;
  if (capture_ != nullptr) {
    CaptureDelivery(src, dst, kind, size, dup_arrival, receiver_delay);
  }
  if (receiver_delay > 0) {
    loop_->ScheduleRelay(arrival, receiver_delay, [shared] { (*shared)(); });
    loop_->ScheduleRelay(dup_arrival, receiver_delay, [shared] { (*shared)(); });
  } else {
    loop_->ScheduleAt(arrival, [shared] { (*shared)(); });
    loop_->ScheduleAt(dup_arrival, [shared] { (*shared)(); });
  }
}

void Fabric::SendRequestResponse(NodeId src, NodeId dst, MsgKind kind, uint64_t req_size,
                                 uint64_t resp_size, TimeNs server_time, DeliveryFn on_response,
                                 DeliveryFn on_fail) {
  if (on_fail == nullptr) {
    Send(src, dst, kind, req_size,
         [this, src, dst, kind, resp_size, server_time, cb = std::move(on_response)]() mutable {
           // Server-side processing runs on the destination's loop (which is
           // its partition under the parallel core).
           node_loop(dst)->ScheduleAfter(server_time, [this, src, dst, kind, resp_size,
                                                       cb2 = std::move(cb)]() mutable {
             Send(dst, src, kind, resp_size, std::move(cb2));
           });
         });
    return;
  }
  // Either leg may fail, but at most one does; share the failure callback
  // across them.
  auto fail = std::make_shared<DeliveryFn>(std::move(on_fail));
  Send(
      src, dst, kind, req_size,
      [this, src, dst, kind, resp_size, server_time, fail,
       cb = std::move(on_response)]() mutable {
        node_loop(dst)->ScheduleAfter(server_time, [this, src, dst, kind, resp_size, fail,
                                                    cb2 = std::move(cb)]() mutable {
          Send(dst, src, kind, resp_size, std::move(cb2), 0, [fail] { (*fail)(); });
        });
      },
      0, [fail] { (*fail)(); });
}

// --- Parallel-core send paths -----------------------------------------------
//
// Everything below runs on the *sending* partition's thread. The receiving
// side only ever sees committed mailbox deliveries; all channel state (link
// clocks, retry timers, the win/fail decision) is src-local, which is what
// makes the reliable channel race-free without locks.

void Fabric::SendParallel(NodeId src, NodeId dst, MsgKind kind, uint64_t size,
                          DeliveryFn&& on_delivery, TimeNs receiver_delay, DeliveryFn&& on_fail,
                          DeliveryFn&& on_settle) {
  EventLoop* sloop = ploop_->partition(src);
  if (src == dst) {
    if (receiver_delay > 0) {
      sloop->ScheduleRelay(sloop->now(), receiver_delay, std::move(on_delivery));
    } else {
      sloop->ScheduleAfter(0, std::move(on_delivery));
    }
    if (on_settle != nullptr) {
      // Loopback "arrives" instantly; settle after the delivery is queued.
      sloop->ScheduleAfter(0, std::move(on_settle));
    }
    return;
  }
  if (plan_ == nullptr) {
    LinkState& link = LinkFor(src, dst);
    StatsFor(src).Account(kind, size);
    const TimeNs arrival = WireArrival(src, dst, link, size, sloop->now());
    if (capture_ != nullptr) {
      CaptureDelivery(src, dst, kind, size, arrival, receiver_delay);
    }
    ploop_->ScheduleCross(src, dst, arrival, receiver_delay, std::move(on_delivery));
    if (on_settle != nullptr) {
      sloop->ScheduleAt(arrival, std::move(on_settle));
    }
    return;
  }
  ParPending* p = new ParPending();
  p->src = src;
  p->dst = dst;
  p->kind = kind;
  p->size = size;
  p->receiver_delay = receiver_delay;
  p->on_delivery = std::move(on_delivery);
  p->on_fail = std::move(on_fail);
  p->on_settle = std::move(on_settle);
  p->refs = 1;  // this frame
  AttemptParallel(p);
  Unref(p);
}

void Fabric::AttemptParallel(ParPending* p) {
  EventLoop* sloop = ploop_->partition(p->src);
  ++p->attempts;
  const TimeNs now = sloop->now();
  if (!plan_->NodeUp(p->src, now)) {
    // The sender itself is down; nothing reaches the wire.
    FailParallel(p);
    return;
  }
  LinkState& link = LinkFor(p->src, p->dst);
  StatsFor(p->src).Account(p->kind, p->size);
  const TimeNs base_arrival = WireArrival(p->src, p->dst, link, p->size, now);
  bool lost = plan_->LinkCut(p->src, p->dst, now) || !plan_->NodeUp(p->dst, base_arrival);
  FaultPlan::Perturbation pert;
  if (lost) {
    plan_->ShardStats(p->src).messages_dropped.Add();
  } else {
    pert = plan_->Perturb(p->src, p->dst, now);
    lost = pert.drop;
  }
  if (!lost) {
    TimeNs arrival = std::max(base_arrival + pert.extra_delay, link.last_arrival);
    link.last_arrival = arrival;
    if (!p->winner_scheduled) {
      // The first transmitted copy is always the one the receiver accepts
      // (arrivals on a link are non-decreasing in scheduling order, FIFO at
      // ties), so its delivery can be committed right now; a src-local
      // marker at the same arrival instant stops the retransmit clock
      // exactly when the serial channel would.
      p->winner_scheduled = true;
      if (capture_ != nullptr) {
        CaptureDelivery(p->src, p->dst, p->kind, p->size, arrival, p->receiver_delay);
      }
      p->winner = ploop_->ScheduleCross(p->src, p->dst, arrival, p->receiver_delay,
                                        std::move(p->on_delivery), /*cancellable=*/true);
      ++p->refs;
      sloop->ScheduleAt(arrival, [this, p] { OnWinnerSettled(p); });
    } else {
      // A transmitted retransmit copy: it lands after the winner and the
      // receiver suppresses it as a duplicate.
      RetryStatsFor(p->src).dups_suppressed.Add(p->dst);
    }
    if (pert.duplicate) {
      const TimeNs dup_arrival = std::max(arrival + pert.duplicate_lag, link.last_arrival);
      link.last_arrival = dup_arrival;
      RetryStatsFor(p->src).dups_suppressed.Add(p->dst);
    }
  }
  // The retransmit clock runs against the unperturbed schedule, as in serial.
  ++p->refs;
  p->timer = sloop->ScheduleAt(base_arrival + GraceFor(p->attempts),
                               [this, p] { OnRetryTimeoutParallel(p); });
}

void Fabric::OnWinnerSettled(ParPending* p) {
  int drop = 1;  // the settle marker's own ref
  DeliveryFn settle;
  if (p->failed) {
    // The sender gave up before the accepted copy landed; in serial that
    // arrival is suppressed as a duplicate of a failed id.
    RetryStatsFor(p->src).dups_suppressed.Add(p->dst);
  } else {
    p->settled = true;
    settle = std::move(p->on_settle);
    p->on_settle = nullptr;
    if (p->timer != kInvalidEventId &&
        ploop_->partition(p->src)->Cancel(p->timer)) {
      p->timer = kInvalidEventId;
      ++drop;  // the cancelled retransmit timer's ref dies with it
    }
  }
  FV_CHECK_GE(p->refs, drop);
  if ((p->refs -= drop) == 0) {
    delete p;
  }
  // After the ref bookkeeping: the callback may recursively send.
  if (settle != nullptr) {
    settle();
  }
}

void Fabric::OnRetryTimeoutParallel(ParPending* p) {
  p->timer = kInvalidEventId;
  FV_CHECK(!p->settled);  // the settle marker cancels any pending timer first
  RetryStatsFor(p->src).timeouts.Add(p->src);
  if (p->attempts >= policy_.max_attempts) {
    FailParallel(p);
  } else {
    RetryStatsFor(p->src).retransmits.Add(p->src);
    AttemptParallel(p);
  }
  Unref(p);
}

void Fabric::FailParallel(ParPending* p) {
  RetryStatsFor(p->src).send_failures.Add(p->src);
  p->failed = true;
  p->on_settle = nullptr;  // a failed send never settles
  if (p->timer != kInvalidEventId) {
    if (ploop_->partition(p->src)->Cancel(p->timer)) {
      Unref(p);
    }
    p->timer = kInvalidEventId;
  }
  if (p->winner_scheduled && !p->settled) {
    // Best effort: a winner still at least one window out is withdrawn at
    // the next barrier; closer than that it may still deliver (the residual
    // fail-after-transmit corner documented in DESIGN.md §9). Either outcome
    // is identical at every thread count.
    ploop_->CancelCross(p->src, p->winner);
  }
  if (p->on_fail != nullptr) {
    // Asynchronously, so a failure surfacing inside Send() cannot reenter
    // the caller mid-construction.
    ploop_->partition(p->src)->ScheduleAfter(0, std::move(p->on_fail));
    p->on_fail = nullptr;
  }
}

void Fabric::SendDatagramParallel(NodeId src, NodeId dst, MsgKind kind, uint64_t size,
                                  DeliveryFn&& on_delivery, TimeNs receiver_delay) {
  EventLoop* sloop = ploop_->partition(src);
  if (src == dst) {
    if (receiver_delay > 0) {
      sloop->ScheduleRelay(sloop->now(), receiver_delay, std::move(on_delivery));
    } else {
      sloop->ScheduleAfter(0, std::move(on_delivery));
    }
    return;
  }
  const TimeNs now = sloop->now();
  if (plan_ != nullptr && !plan_->NodeUp(src, now)) {
    return;  // a crashed node emits nothing, and nobody is told
  }
  LinkState& link = LinkFor(src, dst);
  StatsFor(src).Account(kind, size);
  const TimeNs base_arrival = WireArrival(src, dst, link, size, now);
  if (plan_ == nullptr) {
    if (capture_ != nullptr) {
      CaptureDelivery(src, dst, kind, size, base_arrival, receiver_delay);
    }
    ploop_->ScheduleCross(src, dst, base_arrival, receiver_delay, std::move(on_delivery));
    return;
  }
  bool lost = plan_->LinkCut(src, dst, now) || !plan_->NodeUp(dst, base_arrival);
  FaultPlan::Perturbation pert;
  if (lost) {
    plan_->ShardStats(src).messages_dropped.Add();
  } else {
    pert = plan_->Perturb(src, dst, now);
    lost = pert.drop;
  }
  if (lost) {
    return;
  }
  TimeNs arrival = std::max(base_arrival + pert.extra_delay, link.last_arrival);
  link.last_arrival = arrival;
  if (!pert.duplicate) {
    ploop_->ScheduleCross(src, dst, arrival, receiver_delay, std::move(on_delivery));
    return;
  }
  // Duplicated datagram: both committed copies land on the same destination
  // partition, so the shared slot is only ever touched by dst's thread.
  auto shared = std::make_shared<DeliveryFn>(std::move(on_delivery));
  const TimeNs dup_arrival = std::max(arrival + pert.duplicate_lag, link.last_arrival);
  link.last_arrival = dup_arrival;
  ploop_->ScheduleCross(src, dst, arrival, receiver_delay, [shared] { (*shared)(); });
  ploop_->ScheduleCross(src, dst, dup_arrival, receiver_delay, [shared] { (*shared)(); });
}

FabricStats Fabric::MergedStats() const {
  FabricStats merged = stats_;
  for (const FabricStats& s : shard_stats_) {
    merged.Accumulate(s);
  }
  return merged;
}

RetryStats Fabric::MergedRetryStats() const {
  RetryStats merged = retry_stats_;
  for (const RetryStats& s : shard_retry_) {
    merged.Accumulate(s);
  }
  return merged;
}

}  // namespace fragvisor
