#include "src/sim/parallel_loop.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace fragvisor {
namespace {

// Which partition the current thread is executing a window for (-1 outside a
// window). Enforces the outbox discipline: during a window, only the worker
// that owns partition `src` may append to src's outbox.
thread_local int tl_current_partition = -1;

// Polls a window-handshake waiter makes before parking on the condvar. One
// pause takes about 20 ns on a 4-vCPU Xeon VM, so this spins for about
// 10 us: enough to catch the short handoffs of sparse windows without a
// futex round trip, short enough that an oversubscribed host (ctest -j
// running 8-thread tests on 4 cores) parks before it burns much time.
// Longer spins made two-worker runs faster on an idle host and `ctest -j4`
// slower; shorter ones the reverse.
constexpr int kSpinIterations = 500;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

ParallelEventLoop::ParallelEventLoop(Options options) : opt_(options) {
  FV_CHECK_GE(opt_.num_partitions, 1);
  FV_CHECK_LT(opt_.num_partitions, 1 << 16);  // CrossEventId packs 16-bit ids
  FV_CHECK_GE(opt_.num_threads, 1);
  FV_CHECK_GE(opt_.lookahead, 1);
  opt_.num_threads = std::min(opt_.num_threads, opt_.num_partitions);

  parts_.reserve(static_cast<size_t>(opt_.num_partitions));
  for (int p = 0; p < opt_.num_partitions; ++p) {
    parts_.push_back(std::make_unique<Partition>());
  }
  next_time_.assign(static_cast<size_t>(opt_.num_partitions), EventLoop::kNoPendingEvent);
  drain_count_.assign(static_cast<size_t>(opt_.num_partitions), 0);
  drain_dsts_.assign((static_cast<size_t>(opt_.num_partitions) + 63) / 64, 0);

  // Thread 0 is the coordinating (calling) thread; it runs its own share of
  // partitions inside each window, so only num_threads - 1 workers spawn.
  for (int ti = 1; ti < opt_.num_threads; ++ti) {
    workers_.emplace_back([this, ti]() { WorkerMain(ti); });
  }
}

ParallelEventLoop::~ParallelEventLoop() {
  if (!workers_.empty()) {
    shutdown_.store(true);
    Wake();
    for (std::thread& w : workers_) {
      w.join();
    }
  }
}

TimeNs ParallelEventLoop::now_max() const {
  TimeNs t = 0;
  for (const auto& p : parts_) {
    t = std::max(t, p->loop.now());
  }
  return t;
}

CrossEventId ParallelEventLoop::ScheduleCross(int src, int dst, TimeNs when,
                                              TimeNs relay_delay, Callback&& cb,
                                              bool cancellable) {
  FV_CHECK_GE(src, 0);
  FV_CHECK_LT(src, opt_.num_partitions);
  FV_CHECK_GE(dst, 0);
  FV_CHECK_LT(dst, opt_.num_partitions);
  FV_CHECK(cb != nullptr);
  FV_CHECK_GE(relay_delay, 0);
  // Conservative lookahead contract: nothing may land inside the window that
  // is currently executing (or, between windows, inside the last one).
  FV_CHECK_GE(when, horizon_);
  if (running_) {
    FV_CHECK_EQ(src, tl_current_partition);
  }

  Partition& s = *parts_[static_cast<size_t>(src)];
  CrossEventId token = kInvalidCrossEventId;
  if (cancellable) {
    FV_CHECK_LT(s.next_token, 0xffffffffu);
    token = (static_cast<uint64_t>(src) << 48) |
            (static_cast<uint64_t>(dst) << 32) | s.next_token++;
  }
  s.outbox.emplace_back(token, when, relay_delay, dst, /*cancel=*/false, std::move(cb));
  return token;
}

bool ParallelEventLoop::CancelCross(int from, CrossEventId id) {
  if (id == kInvalidCrossEventId) {
    return false;
  }
  const int src = static_cast<int>(id >> 48);
  const int dst = static_cast<int>((id >> 32) & 0xffffu);
  if (src < 0 || src >= opt_.num_partitions || dst < 0 || dst >= opt_.num_partitions) {
    return false;
  }
  FV_CHECK_GE(from, 0);
  FV_CHECK_LT(from, opt_.num_partitions);
  if (running_) {
    FV_CHECK_EQ(from, tl_current_partition);
  }
  parts_[static_cast<size_t>(from)]->outbox.emplace_back(id, 0, 0, dst, /*cancel=*/true,
                                                         nullptr);
  return true;
}

void ParallelEventLoop::DrainMailboxes() {
  // Stable counting sort by dst. Count each destination's entries, turn the
  // counts into start offsets in ascending dst order, then place entries
  // walking sources in ascending order and each outbox in FIFO order: every
  // destination's run of drain_order_ comes out in (src, FIFO) order, and
  // placing advances each offset to its destination's end.
  drain_srcs_.clear();
  size_t total = 0;
  for (const auto& p : parts_) {
    if (p->outbox.empty()) {
      continue;
    }
    drain_srcs_.push_back(p.get());
    total += p->outbox.size();
    for (const MailEntry& e : p->outbox) {
      const size_t d = static_cast<size_t>(e.dst);
      if (drain_count_[d]++ == 0) {
        drain_dsts_[d / 64] |= uint64_t{1} << (d % 64);
      }
    }
  }
  if (total == 0) {
    return;
  }
  FV_CHECK_LT(total, uint64_t{1} << 32);
  // Visits the destinations with entries in ascending order.
  const auto for_each_dst = [this](auto&& visit) {
    for (size_t w = 0; w < drain_dsts_.size(); ++w) {
      for (uint64_t bits = drain_dsts_[w]; bits != 0; bits &= bits - 1) {
        visit(w * 64 + static_cast<size_t>(std::countr_zero(bits)));
      }
    }
  };
  uint32_t start = 0;
  for_each_dst([&](size_t d) {
    const uint32_t count = drain_count_[d];
    drain_count_[d] = start;
    start += count;
  });
  drain_order_.resize(total);
  for (Partition* p : drain_srcs_) {
    for (MailEntry& e : p->outbox) {
      drain_order_[drain_count_[static_cast<size_t>(e.dst)]++] = &e;
    }
  }

  uint32_t begin = 0;
  for_each_dst([&](size_t dst) {
    const uint32_t end = drain_count_[dst];
    drain_count_[dst] = 0;
    Partition& d = *parts_[dst];
    // Pass 1: commit schedules in (src, FIFO) order — this fixes the
    // destination sequence numbers of equal-time cross events independent of
    // which thread produced them, and guarantees a cancel mailed in the same
    // window as its schedule finds the event committed.
    for (uint32_t k = begin; k < end; ++k) {
      MailEntry& e = *drain_order_[k];
      if (e.cancel) {
        continue;
      }
      ++stats_.mailbox_events;
      const EventId eid =
          e.relay > 0 ? d.loop.ScheduleRelay(e.when, e.relay, std::move(e.cb))
                      : d.loop.ScheduleAt(e.when, std::move(e.cb));
      if (e.token != kInvalidCrossEventId) {
        d.cancellable.emplace(e.token, eid);
      }
    }
    // Pass 2: apply cancels. EventLoop::Cancel rejects handles of events
    // that already fired (slot generations), which is exactly the "late"
    // case of the routed-cancel contract.
    for (uint32_t k = begin; k < end; ++k) {
      const MailEntry& e = *drain_order_[k];
      if (!e.cancel) {
        continue;
      }
      ++stats_.cross_cancels_routed;
      auto it = d.cancellable.find(e.token);
      if (it != d.cancellable.end() && d.loop.Cancel(it->second)) {
        ++stats_.cross_cancels_applied;
      } else {
        ++stats_.cross_cancels_late;
      }
      if (it != d.cancellable.end()) {
        d.cancellable.erase(it);
      }
    }
    next_time_[dst] = d.loop.next_event_time();
    begin = end;
  });
  std::fill(drain_dsts_.begin(), drain_dsts_.end(), 0);
  for (Partition* p : drain_srcs_) {
    p->outbox.clear();
  }
}

void ParallelEventLoop::RunWindows(int thread_index) {
  for (const int p : active_) {
    if (p % opt_.num_threads != thread_index) {
      continue;
    }
    tl_current_partition = p;
    Partition& part = *parts_[static_cast<size_t>(p)];
    part.dispatched += part.loop.RunBelow(horizon_);
    next_time_[static_cast<size_t>(p)] = part.loop.next_event_time();
  }
  tl_current_partition = -1;
}

template <typename Ready>
void ParallelEventLoop::SpinThenPark(Ready ready) {
  for (int i = 0; i < kSpinIterations; ++i) {
    if (ready()) {
      return;
    }
    CpuRelax();
  }
  // Parking is a Dekker handshake with Wake(): the waiter publishes parked_
  // before re-checking `ready`, the waker publishes its state change before
  // reading parked_ (all seq_cst), so at least one of them sees the other.
  std::unique_lock<std::mutex> lk(mu_);
  parked_.fetch_add(1);
  cv_.wait(lk, ready);
  parked_.fetch_sub(1);
}

void ParallelEventLoop::Wake() {
  if (parked_.load() == 0) {
    return;
  }
  // Taking the mutex orders this notify after a parking waiter's re-check.
  {
    std::lock_guard<std::mutex> lk(mu_);
  }
  cv_.notify_all();
}

void ParallelEventLoop::WorkerMain(int thread_index) {
  // Not workers_.size(): the constructor may still be spawning the pool.
  const int num_workers = opt_.num_threads - 1;
  uint64_t seen = 0;
  for (;;) {
    SpinThenPark([&] { return shutdown_.load() || epoch_.load() != seen; });
    if (shutdown_.load()) {
      return;
    }
    seen = epoch_.load();
    RunWindows(thread_index);
    if (done_.fetch_add(1) + 1 == num_workers) {
      Wake();
    }
  }
}

size_t ParallelEventLoop::Run() {
  FV_CHECK(!running_);
  running_ = true;
  const int num_workers = static_cast<int>(workers_.size());
  // Setup may have scheduled partition-local events since the last run.
  for (int p = 0; p < opt_.num_partitions; ++p) {
    next_time_[static_cast<size_t>(p)] = parts_[static_cast<size_t>(p)]->loop.next_event_time();
  }
  for (;;) {
    DrainMailboxes();
    TimeNs tmin = EventLoop::kNoPendingEvent;
    for (const TimeNs t : next_time_) {
      tmin = std::min(tmin, t);
    }
    if (tmin == EventLoop::kNoPendingEvent) {
      break;
    }
    const TimeNs horizon = tmin + opt_.lookahead;
    if (stats_.barriers > 0) {
      stats_.horizon_width_ns.Record(static_cast<double>(horizon - horizon_));
    }
    horizon_ = horizon;
    ++stats_.barriers;
    // A partition below the horizon dispatches at least one event; the rest
    // would dispatch none, so the window skips them.
    active_.clear();
    for (int p = 0; p < opt_.num_partitions; ++p) {
      if (next_time_[static_cast<size_t>(p)] < horizon_) {
        active_.push_back(p);
      }
    }
    stats_.partitions_run.Record(static_cast<double>(active_.size()));
    if (num_workers == 0) {
      RunWindows(0);
    } else {
      done_.store(0);
      epoch_.fetch_add(1);
      Wake();
      RunWindows(0);
      SpinThenPark([&] { return done_.load() == num_workers; });
    }
  }
  running_ = false;

  stats_.events_dispatched = 0;
  stats_.events_per_partition.assign(static_cast<size_t>(opt_.num_partitions), 0);
  for (int p = 0; p < opt_.num_partitions; ++p) {
    const uint64_t n = parts_[static_cast<size_t>(p)]->dispatched;
    stats_.events_per_partition[static_cast<size_t>(p)] = n;
    stats_.events_dispatched += n;
  }
  return stats_.events_dispatched;
}

}  // namespace fragvisor
