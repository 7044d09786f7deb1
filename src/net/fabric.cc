#include "src/net/fabric.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <utility>

#include "src/net/capture.h"
#include "src/sim/check.h"

namespace fragvisor {

const char* MsgKindName(MsgKind kind) {
  // Indexed by MsgKind, in declaration order.
  static constexpr const char* kNames[] = {
      "dsm_read_req", "dsm_write_req", "dsm_page_data", "dsm_invalidate", "dsm_ack",
      "ipi", "tlb_shootdown", "io_doorbell", "io_payload", "io_completion",
      "vcpu_migration", "checkpoint_data", "control", "lease", "dsm_owner_notify"};
  static_assert(std::size(kNames) == static_cast<size_t>(MsgKind::kCount));
  const auto i = static_cast<size_t>(kind);
  return i < std::size(kNames) ? kNames[i] : "unknown";
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
  const size_t pairs = static_cast<size_t>(num_nodes_) * static_cast<size_t>(num_nodes_);
  links_.assign(pairs, LinkEntry{defaults_.latency, 0});
  link_profile_.assign(pairs, 0);
  profiles_.assign(1, LinkParams{0, defaults_.bytes_per_second, defaults_.one_sided_setup});
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
}

void Fabric::ValidateNode(NodeId n) const {
  FV_CHECK_GE(n, 0);
  FV_CHECK_LT(n, num_nodes_);
}

void Fabric::SetLinkParams(NodeId src, NodeId dst, LinkParams params) {
  ValidateNode(src);
  ValidateNode(dst);
  if (ploop_ != nullptr) {
    // Per-pair effective first-hop latency must still cover the lookahead;
    // cross-pod pairs get the core hop's propagation on top of the pair link.
    FV_CHECK_GE(params.latency + CrossPodExtra(src, dst), ploop_->lookahead());
  }
  links_[LinkIndex(src, dst)].latency = std::exchange(params.latency, 0);  // not in profiles
  const auto it = std::find(profiles_.begin(), profiles_.end(), params);
  link_profile_[LinkIndex(src, dst)] = static_cast<uint16_t>(it - profiles_.begin());
  if (it == profiles_.end()) {
    FV_CHECK_LE(profiles_.size(), size_t{UINT16_MAX});
    profiles_.push_back(params);
  }
}

void Fabric::AttachFaultPlan(FaultPlan* plan, RetryPolicy policy, bool arm) {
  FV_CHECK(plan != nullptr);
  FV_CHECK(plan_ == nullptr);
  FV_CHECK_GT(policy.ack_grace, 0);
  FV_CHECK_GE(policy.max_grace, policy.ack_grace);
  FV_CHECK_GT(policy.max_attempts, 0);
  plan_ = plan;
  policy_ = policy;
  last_arrival_.assign(links_.size(), 0);
  if (ploop_ != nullptr) {
    // The parallel reliable channel draws perturbations from the sending
    // partition, which requires one independent RNG stream per node.
    FV_CHECK(plan_->per_node_streams());
    shard_retry_.resize(static_cast<size_t>(num_nodes_));
    for (RetryStats& r : shard_retry_) {
      r.Init(num_nodes_);
    }
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

TimeNs Fabric::WireArrival(NodeId src, NodeId dst, uint64_t size, TimeNs now) {
  LinkEntry& link = links_[LinkIndex(src, dst)];
  const LinkParams params = link_params(src, dst);
  const TimeNs start = std::max(now, link.busy_until);
  const TimeNs depart = start + WireTime(params, size);
  link.busy_until = depart;
  if (SamePod(src, dst)) {
    // Mesh, or both endpoints under one edge switch: the seed-era math,
    // byte for byte.
    return depart + params.latency;
  }
  // Cross-pod fat-tree path: after the pair link (NIC + edge port), the
  // message serializes through the sender's pod uplink at edge bandwidth and
  // then its ECMP-selected core plane at edge bandwidth / oversub. Horizons
  // are monotone and src-indexed: concurrent partitions never share them, and
  // arrivals per directed pair stay non-decreasing (the plane choice is a
  // stable hash of the pair).
  TimeNs& uplink = uplink_busy_[static_cast<size_t>(src)];
  const TimeNs uplink_depart = std::max(depart, uplink) + WireTime(params, size);
  uplink = uplink_depart;
  LinkParams core = params;
  core.bytes_per_second = params.bytes_per_second / topology_.oversub;
  const int plane = EcmpPlane(src, dst, topology_.core_planes);
  TimeNs& core_horizon =
      core_busy_[static_cast<size_t>(src) * static_cast<size_t>(topology_.core_planes) +
                 static_cast<size_t>(plane)];
  const TimeNs core_depart = std::max(uplink_depart, core_horizon) + WireTime(core, size);
  core_horizon = core_depart;
  return core_depart + params.latency + CrossPodExtra(src, dst);
}

Fabric::CommitId Fabric::Commit(NodeId src, NodeId dst, TimeNs arrival, TimeNs receiver_delay,
                                DeliveryFn&& cb, bool cancellable) {
  if (ploop_ != nullptr) {
    return ploop_->ScheduleCross(src, dst, arrival, receiver_delay, std::move(cb), cancellable);
  }
  if (receiver_delay > 0) {
    return loop_->ScheduleRelay(arrival, receiver_delay, std::move(cb));
  }
  return loop_->ScheduleAt(arrival, std::move(cb));
}

void Fabric::Withdraw(NodeId src, CommitId id) {
  if (ploop_ != nullptr) {
    ploop_->CancelCross(src, id);
  } else {
    loop_->Cancel(id);
  }
}

bool Fabric::Lost(NodeId src, NodeId dst, TimeNs now, TimeNs base_arrival,
                  FaultPlan::Perturbation* pert) {
  if (plan_->LinkCut(src, dst, now) || !plan_->NodeUp(dst, base_arrival)) {
    // A node-parallel plan counts in the sender's shard, like Perturb does.
    FaultPlanStats& stats =
        plan_->per_node_streams() ? plan_->ShardStats(src) : plan_->mutable_stats();
    stats.messages_dropped.Add();
    return true;
  }
  *pert = plan_->Perturb(src, dst, now);
  return pert->drop;
}

TimeNs Fabric::Transmit(NodeId src, NodeId dst, MsgKind kind, uint64_t size, DeliveryFn&& cb,
                        TimeNs receiver_delay) {
  EventLoop* sloop = node_loop(src);
  if (src == dst) {
    // Loopback never hits the wire (and never faults): deliver in-order at
    // the current time.
    if (receiver_delay > 0) {
      sloop->ScheduleRelay(sloop->now(), receiver_delay, std::move(cb));
    } else {
      sloop->ScheduleAfter(0, std::move(cb));
    }
    return sloop->now();
  }
  StatsFor(src).Account(kind, size);
  const TimeNs arrival = WireArrival(src, dst, size, sloop->now());
  if (capture_ != nullptr) {
    CaptureDelivery(src, dst, kind, size, arrival, receiver_delay);
  }
  Commit(src, dst, arrival, receiver_delay, std::move(cb));
  return arrival;
}

void Fabric::Send(NodeId src, NodeId dst, MsgKind kind, uint64_t size, DeliveryFn&& on_delivery,
                  TimeNs receiver_delay, DeliveryFn&& on_fail, DeliveryFn&& on_settle) {
  ValidateNode(src);
  ValidateNode(dst);
  FV_CHECK(on_delivery != nullptr);
  if (plan_ == nullptr || src == dst) {
    // Nothing can be lost: one copy, settled at its arrival instant.
    const TimeNs arrival = Transmit(src, dst, kind, size, std::move(on_delivery), receiver_delay);
    if (on_settle != nullptr) {
      node_loop(src)->ScheduleAt(arrival, std::move(on_settle));
    }
    return;
  }
  Pending* p = new Pending();
  p->src = src;
  p->dst = dst;
  p->kind = kind;
  p->size = size;
  p->receiver_delay = receiver_delay;
  p->on_delivery = std::move(on_delivery);
  p->on_fail = std::move(on_fail);
  p->on_settle = std::move(on_settle);
  p->refs = 1;  // this frame
  Attempt(p);
  Unref(p);
}

TimeNs Fabric::GraceFor(int attempt) const {
  FV_CHECK_GE(attempt, 1);
  const int shift = std::min(attempt - 1, 20);
  return std::min(policy_.ack_grace << shift, policy_.max_grace);
}

// The reliable channel. Everything below runs on the *sending* node's loop.
// The receiving side only ever sees committed deliveries; all channel state
// (link clocks, retry timers, the win/fail decision) is src-local, which is
// what makes the channel race-free without locks on the parallel engine.

void Fabric::Attempt(Pending* p) {
  EventLoop* sloop = node_loop(p->src);
  ++p->attempts;
  const TimeNs now = sloop->now();
  if (!plan_->NodeUp(p->src, now)) {
    // The sender itself is down; nothing reaches the wire.
    Fail(p);
    return;
  }
  StatsFor(p->src).Account(p->kind, p->size);
  const TimeNs base_arrival = WireArrival(p->src, p->dst, p->size, now);
  FaultPlan::Perturbation pert;
  if (!Lost(p->src, p->dst, now, base_arrival, &pert)) {
    const TimeNs arrival = ClampArrival(p->src, p->dst, base_arrival + pert.extra_delay);
    if (!p->winner_scheduled) {
      // The first transmitted copy is always the one the receiver accepts
      // (arrivals on a link are non-decreasing in scheduling order, FIFO at
      // ties), so its delivery can be committed right now; a src-local
      // marker at the same arrival instant stops the retransmit clock.
      p->winner_scheduled = true;
      if (capture_ != nullptr) {
        CaptureDelivery(p->src, p->dst, p->kind, p->size, arrival, p->receiver_delay);
      }
      p->winner = Commit(p->src, p->dst, arrival, p->receiver_delay, std::move(p->on_delivery),
                         /*cancellable=*/true);
      ++p->refs;
      sloop->ScheduleAt(arrival, [this, p] { OnWinnerSettled(p); });
    } else {
      // A transmitted retransmit copy: it lands after the winner and the
      // receiver suppresses it as a duplicate.
      RetryStatsFor(p->src).dups_suppressed.Add(p->dst);
    }
    if (pert.duplicate) {
      ClampArrival(p->src, p->dst, arrival + pert.duplicate_lag);
      RetryStatsFor(p->src).dups_suppressed.Add(p->dst);
    }
  }
  // The retransmit clock runs against the unperturbed schedule: the sender
  // knows the link and knows when the ack should have been back.
  ++p->refs;
  p->timer = sloop->ScheduleAt(base_arrival + GraceFor(p->attempts),
                               [this, p] { OnRetryTimeout(p); });
}

void Fabric::OnWinnerSettled(Pending* p) {
  int drop = 1;  // the settle marker's own ref
  DeliveryFn settle;
  if (p->failed) {
    // The sender gave up before the accepted copy landed, and withdrew it:
    // the receiver would have suppressed it as a copy of a failed send.
    RetryStatsFor(p->src).dups_suppressed.Add(p->dst);
  } else {
    p->settled = true;
    settle = std::move(p->on_settle);
    if (p->timer != kInvalidEventId && node_loop(p->src)->Cancel(p->timer)) {
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

void Fabric::OnRetryTimeout(Pending* p) {
  p->timer = kInvalidEventId;
  FV_CHECK(!p->settled);  // the settle marker cancels any pending timer first
  RetryStatsFor(p->src).timeouts.Add(p->src);
  if (p->attempts >= policy_.max_attempts) {
    Fail(p);
  } else {
    RetryStatsFor(p->src).retransmits.Add(p->src);
    Attempt(p);
  }
  Unref(p);
}

void Fabric::Fail(Pending* p) {
  // Callers hold a ref (the Send frame or the firing timer's) and have
  // already cleared the timer, so `p` outlives this call.
  FV_CHECK(p->timer == kInvalidEventId);
  RetryStatsFor(p->src).send_failures.Add(p->src);
  p->failed = true;
  p->on_settle = nullptr;  // a failed send never settles
  if (p->winner_scheduled && !p->settled) {
    // Exact on the serial loop. On the parallel engine a winner still at
    // least one window out is withdrawn at the next barrier; closer than
    // that it may still deliver (the fail-after-transmit corner documented
    // in DESIGN.md §9). Either outcome is identical at every thread count.
    Withdraw(p->src, p->winner);
  }
  if (p->on_fail != nullptr) {
    // Asynchronously, so a failure surfacing inside Send() cannot reenter
    // the caller mid-construction.
    node_loop(p->src)->ScheduleAfter(0, std::move(p->on_fail));
  }
}

void Fabric::SendDatagram(NodeId src, NodeId dst, MsgKind kind, uint64_t size,
                          DeliveryFn&& on_delivery, TimeNs receiver_delay) {
  ValidateNode(src);
  ValidateNode(dst);
  FV_CHECK(on_delivery != nullptr);
  if (plan_ == nullptr || src == dst) {
    Transmit(src, dst, kind, size, std::move(on_delivery), receiver_delay);
    return;
  }
  const TimeNs now = node_loop(src)->now();
  if (!plan_->NodeUp(src, now)) {
    return;  // a crashed node emits nothing, and nobody is told
  }
  StatsFor(src).Account(kind, size);
  const TimeNs base_arrival = WireArrival(src, dst, size, now);
  FaultPlan::Perturbation pert;
  if (Lost(src, dst, now, base_arrival, &pert)) {
    return;
  }
  const TimeNs arrival = ClampArrival(src, dst, base_arrival + pert.extra_delay);
  if (capture_ != nullptr) {
    CaptureDelivery(src, dst, kind, size, arrival, receiver_delay);
  }
  if (!pert.duplicate) {
    Commit(src, dst, arrival, receiver_delay, std::move(on_delivery));
    return;
  }
  // Duplicated datagram: the callback fires twice. InlineFunction is
  // move-only, so both copies share one heap slot (both land on dst, so
  // only dst's thread ever touches it).
  auto shared = std::make_shared<DeliveryFn>(std::move(on_delivery));
  const TimeNs dup_arrival = ClampArrival(src, dst, arrival + pert.duplicate_lag);
  if (capture_ != nullptr) {
    CaptureDelivery(src, dst, kind, size, dup_arrival, receiver_delay);
  }
  Commit(src, dst, arrival, receiver_delay, [shared] { (*shared)(); });
  Commit(src, dst, dup_arrival, receiver_delay, [shared] { (*shared)(); });
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
