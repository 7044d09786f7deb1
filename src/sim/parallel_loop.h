// Conservative parallel discrete-event core.
//
// The simulation is partitioned into one EventLoop per simulated node, run by
// a small worker pool. Synchronization is conservative and null-message-free:
// every cross-partition interaction must arrive at least `lookahead`
// nanoseconds after it was scheduled (for Fabric traffic the minimum link
// latency provides that bound), so the coordinator can repeatedly
//
//   1. drain every source partition's outbox into the destination queues,
//      refreshing the cached clock of each destination it commits to,
//   2. compute Tmin = min over the cached partition clocks (each partition's
//      next_event_time()),
//   3. let every partition whose clock is below the safe horizon
//      Tmin + lookahead execute its own queue up to that horizon in parallel,
//      buffering new cross-partition events in its own outbox and caching
//      its next_event_time() when it finishes,
//   4. barrier and repeat.
//
// A window therefore costs O(cross messages + partitions with work), plus
// one scan of the P cached clocks — never the P^2 (src, dst) pairs.
//
// No event executed inside a window can schedule a cross-partition event
// inside that same window (arrival >= send_time + lookahead >= Tmin +
// lookahead = horizon), so partitions never interact intra-window and each
// window's work is embarrassingly parallel.
//
// Determinism contract: the horizon sequence is a pure function of queue
// state, each partition's queue executes in its own (time, seq) order, and
// at each barrier the outbox entries are grouped by dst with a stable
// counting sort over the sources in ascending order — (dst, src, FIFO) order
// in O(entries + P) — and committed per destination, schedules before
// cancels — so commit order, and therefore every simulation output, is
// byte-identical at any worker count, including 1.
//
// Memory model: outboxes and cached clocks are plain (non-atomic) storage.
// During a window a partition's outbox and clock slot are written only by
// the thread that owns the partition; at a barrier both are read and reset
// only by the coordinator. The window handshake is an atomic epoch (bumped by
// the coordinator to open a window) and an atomic done counter (bumped by
// each worker when it finishes); waiters spin on them for a bounded number
// of iterations and then park on a mutex/condvar pair. The epoch and counter
// carry the happens-before edges, so writer and reader phases strictly
// alternate and the shared storage is data-race free (ThreadSanitizer-clean)
// without per-operation synchronization.

#ifndef FRAGVISOR_SRC_SIM_PARALLEL_LOOP_H_
#define FRAGVISOR_SRC_SIM_PARALLEL_LOOP_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/sim/event_loop.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace fragvisor {

// Handle for a *cancellable* cross-partition event: [src:16][dst:16][seq:32],
// seq drawn from a per-source counter. Non-cancellable cross events (the
// common case) skip token bookkeeping entirely and get kInvalidCrossEventId.
using CrossEventId = uint64_t;

inline constexpr CrossEventId kInvalidCrossEventId = 0;

class ParallelEventLoop {
 public:
  using Callback = EventLoop::Callback;

  struct Options {
    int num_partitions = 1;
    // Worker threads actually running partition windows (partition p is owned
    // by thread p % num_threads). 1 = no pool: the calling thread runs every
    // window itself, with the identical windowing algorithm.
    int num_threads = 1;
    // Conservative lookahead: every ScheduleCross target must be >= the
    // current window end, which the caller guarantees by never scheduling
    // closer than `lookahead` ahead (Fabric: minimum link latency).
    TimeNs lookahead = 1;
  };

  struct RunStats {
    uint64_t barriers = 0;             // windows executed
    uint64_t events_dispatched = 0;    // across all partitions
    uint64_t mailbox_events = 0;       // cross deliveries committed
    uint64_t cross_cancels_routed = 0;
    uint64_t cross_cancels_applied = 0;
    uint64_t cross_cancels_late = 0;   // target already fired (or unknown)
    // Horizon advance between consecutive windows, in ns (across Run() calls;
    // the first window ever has no predecessor and records nothing).
    Summary horizon_width_ns;
    Summary partitions_run;            // partitions dispatching >= 1 event per window
    std::vector<uint64_t> events_per_partition;
  };

  explicit ParallelEventLoop(Options options);
  ~ParallelEventLoop();
  ParallelEventLoop(const ParallelEventLoop&) = delete;
  ParallelEventLoop& operator=(const ParallelEventLoop&) = delete;

  int num_partitions() const { return opt_.num_partitions; }
  int num_threads() const { return opt_.num_threads; }
  TimeNs lookahead() const { return opt_.lookahead; }

  // The partition-local loop. Partition-local scheduling (ScheduleAt/After/
  // Relay, Cancel) goes straight to it; during a window only the owning
  // worker thread may touch it.
  EventLoop* partition(int p) {
    FV_CHECK_GE(p, 0);
    FV_CHECK_LT(p, opt_.num_partitions);
    return &parts_[static_cast<size_t>(p)]->loop;
  }

  // Max committed partition clock (end-of-run simulated time).
  TimeNs now_max() const;

  // Schedules `cb` on partition `dst` at absolute time `when`, from partition
  // `src`. Must satisfy the lookahead contract: when >= current window end.
  // If `relay_delay` > 0 the event is committed as a ScheduleRelay (delivery
  // hop + handler hop) on the destination loop. With cancellable=false
  // (default) no token is allocated and kInvalidCrossEventId is returned;
  // with cancellable=true the returned id can be passed to CancelCross.
  //
  // May be called from the source partition's callbacks during a window, or
  // from the coordinating thread while no window is executing (setup).
  CrossEventId ScheduleCross(int src, int dst, TimeNs when, TimeNs relay_delay,
                             Callback&& cb, bool cancellable = false);

  // Requests cancellation of a cancellable cross event. The request is routed
  // through `from`'s outbox to the owning partition and applied at the
  // next barrier. Guaranteed to win if the target fires >= one lookahead
  // after the canceller's current time; otherwise it is best-effort (the
  // event may fire first, counted as cross_cancels_late). Returns false only
  // for a malformed handle.
  bool CancelCross(int from, CrossEventId id);

  // Runs every partition to completion. Returns total events dispatched.
  size_t Run();

  const RunStats& stats() const { return stats_; }

  // Snapshot serialization of the cancellable-token allocators. Restoring a
  // partition's counter keeps CrossEventId allocation identical after a
  // resume (token values feed nothing observable, but identical handles make
  // resumed and uninterrupted runs indistinguishable under a debugger too).
  // Only meaningful between runs; the committed-token maps are empty then
  // because a drained run has fired or withdrawn every cancellable event.
  uint32_t next_cancellable_token(int p) {
    FV_CHECK_GE(p, 0);
    FV_CHECK_LT(p, opt_.num_partitions);
    return parts_[static_cast<size_t>(p)]->next_token;
  }
  void RestoreCancellableToken(int p, uint32_t token) {
    FV_CHECK_GE(p, 0);
    FV_CHECK_LT(p, opt_.num_partitions);
    FV_CHECK(!running_);
    parts_[static_cast<size_t>(p)]->next_token = token;
  }

 private:
  // One outbox entry: a cross schedule (cb != nullptr) or a cross cancel
  // (cb == nullptr, token identifies the victim), bound for partition `dst`.
  struct MailEntry {
    CrossEventId token = kInvalidCrossEventId;
    TimeNs when = 0;
    TimeNs relay = 0;
    int dst = 0;
    bool cancel = false;  // true: withdraw `token` instead of scheduling `cb`
    Callback cb;
  };

  struct Partition {
    EventLoop loop;
    // Cross events this (src) partition sent during the current window, in
    // send order. Written by the owning worker during a window; drained by
    // the coordinator at the barrier (see memory-model note above).
    std::vector<MailEntry> outbox;
    uint32_t next_token = 1;  // per-source cancellable-event counter
    // Committed-but-unfired cancellable events owned by this (dst) partition.
    // Values may go stale after the event fires; EventLoop::Cancel rejects
    // stale handles via slot generations, which is how "late" is detected.
    std::unordered_map<CrossEventId, EventId> cancellable;
    uint64_t dispatched = 0;
  };

  // Coordinator, between windows: commits all outbox entries in
  // deterministic (dst, src, FIFO) order, each destination's schedules
  // before its cancels.
  void DrainMailboxes();
  // Runs every active partition owned by `thread_index` up to horizon_.
  void RunWindows(int thread_index);
  void WorkerMain(int thread_index);
  // Window handshake: spins on `ready` for a bounded number of iterations,
  // then parks on cv_ (counted in parked_ so Wake() knows to notify).
  template <typename Ready>
  void SpinThenPark(Ready ready);
  void Wake();

  Options opt_;
  std::vector<std::unique_ptr<Partition>> parts_;
  // next_time_[p] caches parts_[p]->loop.next_event_time(); written by p's
  // owner after its window and by the coordinator at Run() start and drain.
  std::vector<TimeNs> next_time_;
  std::vector<int> active_;  // partitions below horizon_ this window
  // Drain scratch (coordinator only). drain_count_[d] counts destination d's
  // entries, then holds its offset into drain_order_ (every entry, in
  // (dst, src, FIFO) order); it is all zeros between drains. drain_dsts_ is
  // a bitmap of the destinations with entries, so walking them in ascending
  // order costs P/64 words, and drain_srcs_ lists the sources with any.
  std::vector<uint32_t> drain_count_;
  std::vector<uint64_t> drain_dsts_;
  std::vector<Partition*> drain_srcs_;
  std::vector<MailEntry*> drain_order_;
  RunStats stats_;

  // Window handshake. horizon_ and active_ are plain data: written by the
  // coordinator before the epoch bump, read by workers after observing it.
  TimeNs horizon_ = 0;
  bool running_ = false;
  std::vector<std::thread> workers_;
  std::atomic<uint64_t> epoch_{0};
  std::atomic<int> done_{0};
  std::atomic<bool> shutdown_{false};
  std::mutex mu_;  // parking only
  std::condition_variable cv_;
  std::atomic<int> parked_{0};  // threads parked (or about to park) on cv_
};

}  // namespace fragvisor

#endif  // FRAGVISOR_SRC_SIM_PARALLEL_LOOP_H_
