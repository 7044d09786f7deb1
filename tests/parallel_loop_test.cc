// Tier-1 determinism and correctness tests for the parallel simulation core:
// the ParallelEventLoop itself, and the DSM coherence storm run at several
// worker counts (the byte-identity contract the core is built around).

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "gtest/gtest.h"
#include "src/sim/parallel_loop.h"
#include "src/sim/rng.h"
#include "src/workload/dsmstorm.h"

namespace fragvisor {
namespace {

// --- ParallelEventLoop unit tests -----------------------------------------

TEST(ParallelLoopTest, RunsPartitionLocalEventsInTimeOrder) {
  ParallelEventLoop::Options po;
  po.num_partitions = 2;
  po.num_threads = 2;
  po.lookahead = 100;
  ParallelEventLoop ploop(po);
  std::vector<int> order;
  ploop.partition(0)->ScheduleAt(30, [&order] { order.push_back(3); });
  ploop.partition(0)->ScheduleAt(10, [&order] { order.push_back(1); });
  ploop.partition(0)->ScheduleAt(20, [&order] { order.push_back(2); });
  const size_t dispatched = ploop.Run();
  EXPECT_EQ(dispatched, 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(ploop.stats().events_dispatched, 3u);
}

TEST(ParallelLoopTest, CrossEventsRespectLookahead) {
  ParallelEventLoop::Options po;
  po.num_partitions = 2;
  po.num_threads = 1;
  po.lookahead = 50;
  ParallelEventLoop ploop(po);
  bool delivered = false;
  TimeNs delivered_at = -1;
  ploop.partition(0)->ScheduleAt(10, [&ploop, &delivered, &delivered_at] {
    ploop.ScheduleCross(0, 1, /*when=*/10 + 50, /*relay_delay=*/0,
                        [&ploop, &delivered, &delivered_at] {
                          delivered = true;
                          delivered_at = ploop.partition(1)->now();
                        });
  });
  ploop.Run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(delivered_at, 60);
  EXPECT_EQ(ploop.stats().mailbox_events, 1u);
  EXPECT_GE(ploop.stats().barriers, 1u);
}

TEST(ParallelLoopTest, PingPongAcrossPartitions) {
  ParallelEventLoop::Options po;
  po.num_partitions = 2;
  po.num_threads = 2;
  po.lookahead = 10;
  ParallelEventLoop ploop(po);
  constexpr int kHops = 64;
  int hops = 0;
  // Mutual recursion through a heap-held lambda: each hop re-sends from the
  // side that just received.
  struct Pong {
    ParallelEventLoop* ploop;
    int* hops;
    void Hop(int side) const {
      if (*hops >= kHops) {
        return;
      }
      ++*hops;
      const TimeNs when = ploop->partition(side)->now() + 10;
      ploop->ScheduleCross(side, 1 - side, when, 0, [copy = *this, side] { copy.Hop(1 - side); });
    }
  };
  Pong pong{&ploop, &hops};
  ploop.partition(0)->ScheduleAt(0, [pong] { pong.Hop(0); });
  ploop.Run();
  EXPECT_EQ(hops, kHops);
  EXPECT_EQ(ploop.stats().mailbox_events, static_cast<uint64_t>(kHops));
}

TEST(ParallelLoopTest, IdenticalScheduleAtAnyWorkerCount) {
  // A mesh of cross-partition sends with colliding timestamps; the dispatch
  // transcript (partition, time, tag) must not depend on the worker count.
  const auto run = [](int num_threads) {
    ParallelEventLoop::Options po;
    po.num_partitions = 8;
    po.num_threads = num_threads;
    po.lookahead = 7;
    ParallelEventLoop ploop(po);
    // One transcript per partition: each is only appended from its own
    // worker, and each is deterministic on its own, so the concatenation is
    // worker-count-invariant without any cross-partition ordering claim.
    std::vector<std::vector<std::string>> transcript(8);
    struct Fan {
      ParallelEventLoop* ploop;
      std::vector<std::vector<std::string>>* transcript;
      void Send(int from, int depth) const {
        if (depth >= 3) {
          return;
        }
        for (int d = 0; d < 8; ++d) {
          if (d == from) {
            continue;
          }
          const TimeNs when = ploop->partition(from)->now() + 7 + ((from + d) % 3);
          ploop->ScheduleCross(from, d, when, 0, [copy = *this, d, depth, when] {
            (*copy.transcript)[static_cast<size_t>(d)].push_back(
                std::to_string(d) + "@" + std::to_string(when) + "#" + std::to_string(depth));
            if (d % 3 == 0) {
              copy.Send(d, depth + 1);
            }
          });
        }
      }
    };
    Fan fan{&ploop, &transcript};
    for (int p = 0; p < 8; ++p) {
      ploop.partition(p)->ScheduleAt(p % 2, [fan, p] { fan.Send(p, 0); });
    }
    ploop.Run();
    std::string flat;
    for (const std::vector<std::string>& part : transcript) {
      for (const std::string& s : part) {
        flat += s;
        flat += '\n';
      }
    }
    return flat;
  };
  const std::string t1 = run(1);
  EXPECT_EQ(t1, run(2));
  EXPECT_EQ(t1, run(4));
  EXPECT_EQ(t1, run(8));
  EXPECT_FALSE(t1.empty());
}

TEST(ParallelLoopTest, DrainCommitsEachDestinationInSourceThenFifoOrder) {
  // Sources 7, 5, 3, 1 send (in that simulated order, i.e. descending src)
  // plain and relay cross events to destinations 0 and 4 that all land at
  // the same instant. Each destination must commit them in (src ascending,
  // FIFO) order whatever the worker count. Partition 2 cancels an event that
  // partition 6 schedules in the same window: the cancel drains from the
  // lower source, yet must still find its schedule.
  constexpr int kParts = 8;
  constexpr TimeNs kLand = 200;
  constexpr TimeNs kRelay = 10;
  const auto run = [&](int num_threads, ParallelEventLoop::RunStats* stats) {
    ParallelEventLoop::Options po;
    po.num_partitions = kParts;
    po.num_threads = num_threads;
    po.lookahead = 100;
    ParallelEventLoop ploop(po);
    std::vector<std::string> transcript(kParts);
    const auto note = [&ploop, &transcript](int dst, std::string tag) {
      return [&ploop, &transcript, dst, tag] {
        transcript[static_cast<size_t>(dst)] +=
            tag + "@" + std::to_string(ploop.partition(dst)->now()) + " ";
      };
    };
    for (const int src : {7, 5, 3, 1}) {
      const std::string s = std::to_string(src);
      ploop.partition(src)->ScheduleAt(8 - src, [&ploop, &note, src, s] {
        ploop.ScheduleCross(src, 0, kLand, 0, note(0, s + "a"));
        ploop.ScheduleCross(src, 0, kLand, kRelay, note(0, s + "r"));
        ploop.ScheduleCross(src, 0, kLand, 0, note(0, s + "b"));
        ploop.ScheduleCross(src, 4, kLand, 0, note(4, s + "a"));
        ploop.ScheduleCross(src, 4, kLand, 0, note(4, s + "b"));
      });
    }
    // Handles are [src:16][dst:16][seq:32] with a per-source counter from 1,
    // so partition 2 can name partition 6's first cancellable event without
    // sharing any state across partitions.
    constexpr CrossEventId kVictim = (CrossEventId{6} << 48) | (CrossEventId{0} << 32) | 1;
    CrossEventId scheduled = kInvalidCrossEventId;
    ploop.partition(6)->ScheduleAt(9, [&ploop, &note, &scheduled] {
      scheduled = ploop.ScheduleCross(6, 0, kLand, 0, note(0, "victim"), /*cancellable=*/true);
    });
    ploop.partition(2)->ScheduleAt(10, [&ploop] { EXPECT_TRUE(ploop.CancelCross(2, kVictim)); });
    ploop.Run();
    EXPECT_EQ(scheduled, kVictim);
    *stats = ploop.stats();
    std::string flat;
    for (int p = 0; p < kParts; ++p) {
      flat += std::to_string(p) + ": " + transcript[static_cast<size_t>(p)] + "\n";
    }
    return flat;
  };
  ParallelEventLoop::RunStats s1;
  const std::string t1 = run(1, &s1);
  EXPECT_EQ(t1,
            "0: 1a@200 1b@200 3a@200 3b@200 5a@200 5b@200 7a@200 7b@200 "
            "1r@210 3r@210 5r@210 7r@210 \n"
            "1: \n2: \n3: \n"
            "4: 1a@200 1b@200 3a@200 3b@200 5a@200 5b@200 7a@200 7b@200 \n"
            "5: \n6: \n7: \n");
  EXPECT_EQ(s1.mailbox_events, 21u);
  EXPECT_EQ(s1.cross_cancels_routed, 1u);
  EXPECT_EQ(s1.cross_cancels_applied, 1u);
  EXPECT_EQ(s1.cross_cancels_late, 0u);
  for (const int threads : {2, 4}) {
    ParallelEventLoop::RunStats s;
    EXPECT_EQ(run(threads, &s), t1) << "threads=" << threads;
    EXPECT_EQ(s.barriers, s1.barriers) << "threads=" << threads;
    EXPECT_EQ(s.cross_cancels_applied, 1u) << "threads=" << threads;
    EXPECT_EQ(s.partitions_run.sum(), s1.partitions_run.sum()) << "threads=" << threads;
  }
}

TEST(ParallelLoopTest, RandomizedDrainMatchesReferenceSortAtAnyWorkerCount) {
  // Every partition repeatedly fires a burst of cross events at random
  // destinations with colliding arrival times: plain events, relays, and
  // cancellable events, half of which the sender withdraws in the same
  // window. Equal-time deliveries at a destination fire in commit order, so
  // each destination's plain deliveries must equal a reference: all sends
  // sorted by (window, src, FIFO) — the (dst, src, FIFO) drain order, window
  // by window — then stably by arrival time.
  constexpr int kParts = 16;
  constexpr int kTicks = 60;
  constexpr TimeNs kLookahead = 20;
  struct Send {
    uint64_t window;
    int src;
    int fifo;
    int dst;
    TimeNs when;
    TimeNs relay;
    bool cancelled;
  };
  // A delivery as its destination saw it: (time, src, fifo).
  using Seen = std::tuple<TimeNs, int, int>;
  struct Result {
    std::vector<std::vector<Send>> sends;       // per source, in send order
    std::vector<std::vector<Seen>> plain;       // per destination, fire order
    std::vector<std::vector<Seen>> relayed;     // per destination, handler hops
    ParallelEventLoop::RunStats stats;
  };
  const auto run = [&](int num_threads) {
    ParallelEventLoop::Options po;
    po.num_partitions = kParts;
    po.num_threads = num_threads;
    po.lookahead = kLookahead;
    ParallelEventLoop ploop(po);
    Result r;
    r.sends.resize(kParts);
    r.plain.resize(kParts);
    r.relayed.resize(kParts);
    std::vector<Rng> rngs;
    for (int p = 0; p < kParts; ++p) {
      rngs.emplace_back(1000 + static_cast<uint64_t>(p));
    }
    struct Tick {
      ParallelEventLoop* ploop;
      Result* r;
      std::vector<Rng>* rngs;
      int src;
      int left;
      void operator()() const {
        Rng& rng = (*rngs)[static_cast<size_t>(src)];
        EventLoop* loop = ploop->partition(src);
        // Read between barriers only: the coordinator writes it while no
        // window runs.
        const uint64_t window = ploop->stats().barriers;
        const int burst = static_cast<int>(rng.UniformInt(1, 6));
        for (int i = 0; i < burst; ++i) {
          std::vector<Send>& mine = r->sends[static_cast<size_t>(src)];
          Send s{window, src, static_cast<int>(mine.size()),
                 static_cast<int>(rng.UniformInt(0, kParts - 1)),
                 loop->now() + kLookahead + rng.UniformInt(0, 2),
                 rng.Chance(0.25) ? rng.UniformInt(1, 3) : 0, false};
          const bool cancellable = rng.Chance(0.3);
          Result* res = r;
          const int dst = s.dst;
          const Seen seen{s.when, s.src, s.fifo};
          EventLoop::Callback cb;
          if (s.relay > 0) {
            cb = [res, dst, seen] { res->relayed[static_cast<size_t>(dst)].push_back(seen); };
          } else {
            cb = [res, dst, seen] { res->plain[static_cast<size_t>(dst)].push_back(seen); };
          }
          const CrossEventId id =
              ploop->ScheduleCross(src, dst, s.when, s.relay, std::move(cb), cancellable);
          if (cancellable && rng.Chance(0.5)) {
            EXPECT_TRUE(ploop->CancelCross(src, id));
            s.cancelled = true;
          }
          mine.push_back(s);
        }
        if (left > 0) {
          loop->ScheduleAfter(rng.UniformInt(1, kLookahead),
                              Tick{ploop, r, rngs, src, left - 1});
        }
      }
    };
    for (int p = 0; p < kParts; ++p) {
      ploop.partition(p)->ScheduleAt(p % 3, Tick{&ploop, &r, &rngs, p, kTicks});
    }
    ploop.Run();
    r.stats = ploop.stats();
    return r;
  };

  const Result ref = run(1);
  std::vector<Send> all;
  for (const std::vector<Send>& mine : ref.sends) {
    all.insert(all.end(), mine.begin(), mine.end());
  }
  std::sort(all.begin(), all.end(), [](const Send& a, const Send& b) {
    return std::tie(a.window, a.src, a.fifo) < std::tie(b.window, b.src, b.fifo);
  });
  std::vector<std::vector<Send>> want_plain(kParts);
  std::vector<std::vector<Seen>> want_relayed(kParts);
  uint64_t scheduled = 0;
  uint64_t cancelled = 0;
  for (const Send& s : all) {
    ++scheduled;
    if (s.cancelled) {
      ++cancelled;
    } else if (s.relay > 0) {
      want_relayed[static_cast<size_t>(s.dst)].emplace_back(s.when, s.src, s.fifo);
    } else {
      want_plain[static_cast<size_t>(s.dst)].push_back(s);
    }
  }
  ASSERT_GT(cancelled, 0u);
  for (int d = 0; d < kParts; ++d) {
    std::vector<Send>& plain = want_plain[static_cast<size_t>(d)];
    std::stable_sort(plain.begin(), plain.end(),
                     [](const Send& a, const Send& b) { return a.when < b.when; });
    std::vector<Seen> want;
    for (const Send& s : plain) {
      want.emplace_back(s.when, s.src, s.fifo);
    }
    EXPECT_EQ(ref.plain[static_cast<size_t>(d)], want) << "dst=" << d;
    // Relays fire once each, at their arrival; their handler hops take
    // fresh sequence numbers, so only the set is checked here.
    std::vector<Seen> got_relayed = ref.relayed[static_cast<size_t>(d)];
    std::sort(got_relayed.begin(), got_relayed.end());
    std::vector<Seen>& want_r = want_relayed[static_cast<size_t>(d)];
    std::sort(want_r.begin(), want_r.end());
    EXPECT_EQ(got_relayed, want_r) << "dst=" << d;
  }
  EXPECT_EQ(ref.stats.mailbox_events, scheduled);
  EXPECT_EQ(ref.stats.cross_cancels_routed, cancelled);
  EXPECT_EQ(ref.stats.cross_cancels_applied, cancelled);
  EXPECT_EQ(ref.stats.cross_cancels_late, 0u);

  for (const int threads : {2, 4}) {
    const Result r = run(threads);
    EXPECT_EQ(r.plain, ref.plain) << "threads=" << threads;
    EXPECT_EQ(r.relayed, ref.relayed) << "threads=" << threads;
    EXPECT_EQ(r.stats.barriers, ref.stats.barriers) << "threads=" << threads;
    EXPECT_EQ(r.stats.mailbox_events, ref.stats.mailbox_events) << "threads=" << threads;
    EXPECT_EQ(r.stats.cross_cancels_applied, cancelled) << "threads=" << threads;
  }
}

TEST(ParallelLoopTest, IdlePartitionWakesWhenACrossEventArrives) {
  // Partitions 0 and 1 ping-pong for many windows while partition 3 has
  // nothing to do; then a cross event wakes it. Its cached clock must be
  // refreshed by the drain, or it would never run again.
  const auto run = [](int num_threads, ParallelEventLoop::RunStats* stats) {
    ParallelEventLoop::Options po;
    po.num_partitions = 4;
    po.num_threads = num_threads;
    po.lookahead = 10;
    ParallelEventLoop ploop(po);
    struct Pong {
      ParallelEventLoop* ploop;
      std::vector<TimeNs>* woke;
      int hop;
      void operator()() const {
        const int side = hop % 2;
        const TimeNs now = ploop->partition(side)->now();
        if (hop == 40) {
          ParallelEventLoop* pl = ploop;
          std::vector<TimeNs>* w = woke;
          ploop->ScheduleCross(side, 3, now + 25, 0, [pl, w] {
            w->push_back(pl->partition(3)->now());
            // A partition-local follow-up, long after the ping-pong ends.
            pl->partition(3)->ScheduleAfter(5000, [pl, w] { w->push_back(pl->partition(3)->now()); });
          });
        }
        if (hop < 60) {
          ploop->ScheduleCross(side, 1 - side, now + 10, 0, Pong{ploop, woke, hop + 1});
        }
      }
    };
    std::vector<TimeNs> woke;
    ploop.partition(0)->ScheduleAt(0, Pong{&ploop, &woke, 0});
    ploop.Run();
    *stats = ploop.stats();
    return woke;
  };
  ParallelEventLoop::RunStats s1;
  const std::vector<TimeNs> woke = run(1, &s1);
  EXPECT_EQ(woke, (std::vector<TimeNs>{425, 5425}));
  EXPECT_EQ(s1.events_per_partition, (std::vector<uint64_t>{31, 30, 0, 2}));
  // One ping-pong side per window, plus partition 3 once.
  EXPECT_EQ(s1.partitions_run.count(), s1.barriers);
  EXPECT_EQ(s1.partitions_run.min(), 1.0);
  EXPECT_EQ(s1.partitions_run.sum(), 63.0);
  for (const int threads : {2, 4}) {
    ParallelEventLoop::RunStats s;
    EXPECT_EQ(run(threads, &s), woke) << "threads=" << threads;
    EXPECT_EQ(s.events_per_partition, s1.events_per_partition) << "threads=" << threads;
  }
}

TEST(ParallelLoopTest, ScheduleCrossFromSetupBeforeAndBetweenRuns) {
  for (const int threads : {1, 2, 4}) {
    ParallelEventLoop::Options po;
    po.num_partitions = 4;
    po.num_threads = threads;
    po.lookahead = 50;
    ParallelEventLoop ploop(po);
    std::vector<std::string> log(4);
    const auto note = [&ploop, &log](int dst, const char* tag) {
      return [&ploop, &log, dst, tag] {
        log[static_cast<size_t>(dst)] +=
            std::string(tag) + "@" + std::to_string(ploop.partition(dst)->now()) + " ";
      };
    };
    // Before the first Run(): plain and relayed setup sends, plus a
    // cancellable one withdrawn before it can fire.
    ploop.ScheduleCross(0, 2, 100, 0, note(2, "first"));
    ploop.ScheduleCross(1, 2, 100, 20, note(2, "relay"));
    const CrossEventId doomed = ploop.ScheduleCross(3, 2, 150, 0, note(2, "doomed"), true);
    ASSERT_NE(doomed, kInvalidCrossEventId);
    EXPECT_TRUE(ploop.CancelCross(0, doomed));
    EXPECT_EQ(ploop.Run(), 3u);  // "first", plus the relay's delivery and handler hops
    EXPECT_EQ(log[2], "first@100 relay@120 ");
    EXPECT_EQ(ploop.stats().cross_cancels_applied, 1u);

    // Between runs: the next run drains these before computing its horizon.
    ploop.ScheduleCross(2, 1, 1000, 0, note(1, "second"));
    ploop.ScheduleCross(3, 0, 1000, 0, note(0, "second"));
    EXPECT_EQ(ploop.Run(), 5u);  // cumulative across runs
    EXPECT_EQ(log[0], "second@1000 ");
    EXPECT_EQ(log[1], "second@1000 ");
    EXPECT_EQ(ploop.stats().mailbox_events, 5u) << "threads=" << threads;
  }
}

TEST(ParallelLoopTest, HorizonWidthRecordsAdvancesAcrossRuns) {
  // The first run's windows are 100 ms apart and end at 500 ms; the second
  // run starts at 1 s. The widest real advance between consecutive windows
  // is therefore 500 ms — never the second run's absolute start time.
  ParallelEventLoop::Options po;
  po.num_partitions = 2;
  po.num_threads = 1;
  po.lookahead = Micros(1);
  ParallelEventLoop ploop(po);
  for (int k = 0; k <= 5; ++k) {
    ploop.partition(k % 2)->ScheduleAt(Millis(100) * k, [] {});
  }
  ploop.Run();
  EXPECT_EQ(ploop.stats().horizon_width_ns.max(), static_cast<double>(Millis(100)));
  for (int k = 0; k <= 2; ++k) {
    ploop.partition(k % 2)->ScheduleAt(Seconds(1) + Millis(100) * k, [] {});
  }
  ploop.Run();
  const ParallelEventLoop::RunStats& s = ploop.stats();
  EXPECT_EQ(s.barriers, 9u);
  EXPECT_EQ(s.horizon_width_ns.count(), 8u);
  EXPECT_EQ(s.horizon_width_ns.max(), static_cast<double>(Millis(500)));
  EXPECT_EQ(s.horizon_width_ns.min(), static_cast<double>(Millis(100)));
}

// --- DSM storm byte-identity across worker counts -------------------------

StormOptions SmallStorm() {
  StormOptions so;
  so.num_nodes = 16;
  so.streams_per_node = 3;
  so.accesses_per_stream = 40;
  so.pages_per_node = 32;
  so.cache_slots = 8;
  so.seed = 7;
  return so;
}

TEST(ParallelStormTest, ByteIdenticalAcrossWorkerCounts) {
  // The small storm, and the default 64-node x 4-stream x 200-access one.
  for (const StormOptions& so : {SmallStorm(), StormOptions()}) {
    SCOPED_TRACE("nodes=" + std::to_string(so.num_nodes));
    const StormResult r1 = RunStorm(so, 1);
    const std::string ref = StormReport(r1);
    ASSERT_FALSE(ref.empty());
    EXPECT_GT(r1.totals.remote_reads, 0u);
    EXPECT_GT(r1.totals.remote_writes, 0u);
    for (const int threads : {2, 4, 8}) {
      const StormResult r = RunStorm(so, threads);
      EXPECT_EQ(StormReport(r), ref) << "threads=" << threads;
      // The window decomposition itself is part of the determinism contract.
      EXPECT_EQ(r.events_dispatched, r1.events_dispatched) << "threads=" << threads;
      EXPECT_EQ(r.core.barriers, r1.core.barriers) << "threads=" << threads;
      EXPECT_EQ(r.core.mailbox_events, r1.core.mailbox_events) << "threads=" << threads;
      EXPECT_EQ(r.core.events_per_partition, r1.core.events_per_partition)
          << "threads=" << threads;
    }
  }
}

TEST(ParallelStormTest, ByteIdenticalAcrossWorkerCountsUnderFaults) {
  StormOptions so = SmallStorm();
  so.drop_prob = 0.03;
  so.dup_prob = 0.02;
  so.extra_delay_max = Micros(3);
  so.crash_node = 5;
  so.crash_at = Micros(40);
  so.restart_at = Micros(120);
  so.partition_a = 1;
  so.partition_b = 9;
  so.partition_from = Micros(20);
  so.partition_until = Micros(90);
  const StormResult r1 = RunStorm(so, 1);
  const std::string ref = StormReport(r1);
  EXPECT_TRUE(r1.used_fault_plan);
  EXPECT_GT(r1.faults.messages_dropped.value() + r1.faults.messages_delayed.value() +
                r1.faults.messages_duplicated.value(),
            0u);
  for (const int threads : {2, 4, 8}) {
    EXPECT_EQ(StormReport(RunStorm(so, threads)), ref) << "threads=" << threads;
  }
}

TEST(ParallelStormTest, ZeroWorkersRunsOneWorker) {
  // threads == 0 is one worker, not a second engine: the same report on the
  // storm-lossy-links scenario, which has caches, writes and faults.
  StormOptions so;
  so.num_nodes = 12;
  so.streams_per_node = 3;
  so.accesses_per_stream = 100;
  so.drop_prob = 0.03;
  so.dup_prob = 0.01;
  so.extra_delay_max = Micros(3);
  so.seed = 9;
  so.epochs = 2;
  const StormResult r = RunStorm(so, 0);
  EXPECT_GT(r.totals.invalidations, 0u);
  EXPECT_GT(r.faults.messages_dropped.value(), 0u);
  EXPECT_EQ(r.threads, 1);
  EXPECT_EQ(StormReport(r), StormReport(RunStorm(so, 1)));
}

TEST(ParallelStormTest, StormCompletesAllAccessesWithoutFaults) {
  const StormOptions so = SmallStorm();
  const StormResult r = RunStorm(so, 2);
  const uint64_t expected = static_cast<uint64_t>(so.num_nodes) * so.streams_per_node *
                            so.accesses_per_stream;
  EXPECT_EQ(r.totals.local_accesses + r.totals.cache_hits + r.totals.remote_reads +
                r.totals.remote_writes,
            expected);
  EXPECT_EQ(r.totals.failures, 0u);
  EXPECT_EQ(r.totals.served_reads, r.totals.remote_reads);
  EXPECT_EQ(r.totals.served_writes, r.totals.remote_writes);
}

}  // namespace
}  // namespace fragvisor
