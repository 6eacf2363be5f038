// Property: the calendar-queue Engine dispatches the exact total order
// the historical single-heap engine did. A reference engine (one
// std::priority_queue of closures under the same (time, seq)
// comparator) runs the same randomized self-expanding workload; the
// dispatch log, now() trajectory, events_dispatched and pending counts
// must match event for event — across same-timestamp bursts,
// far-future timers (the overflow path), run_until deadlines, and
// deliberately mis-sized calendar rings.
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event.hpp"

namespace harmless::sim {
namespace {

/// splitmix64: per-event deterministic decisions, so both engines make
/// identical choices without sharing a mutable generator.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// The historical engine, reduced to its essence: one binary heap of
/// (time, seq, closure) under the min-(at, seq) comparator.
class ReferenceEngine {
 public:
  [[nodiscard]] SimNanos now() const { return now_; }

  void schedule_at(SimNanos at, std::function<void()> fn) {
    queue_.push(Ev{std::max(at, now_), next_seq_++, std::move(fn)});
  }

  bool step() {
    if (queue_.empty()) return false;
    Ev ev = queue_.top();
    queue_.pop();
    now_ = ev.at;
    ++events_dispatched_;
    ev.fn();
    return true;
  }

  void run() {
    while (step()) {
    }
  }

  void run_until(SimNanos deadline) {
    while (!queue_.empty() && queue_.top().at <= deadline) step();
    now_ = std::max(now_, deadline);
  }

  [[nodiscard]] std::size_t pending() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t events_dispatched() const { return events_dispatched_; }

 private:
  struct Ev {
    SimNanos at;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Ev& a, const Ev& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Ev, std::vector<Ev>, Later> queue_;
  SimNanos now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_dispatched_ = 0;
};

/// Drives an engine with a self-expanding workload: each dispatched
/// event logs (id, now) and schedules 0-2 children at deltas drawn
/// deterministically from its id — same-timestamp (0), nearly-FIFO,
/// mid-range, and far-future (overflow-sized) jumps.
template <typename EngineT>
struct Driver {
  EngineT& engine;
  std::uint64_t seed;
  int max_depth;
  std::uint64_t next_id = 0;
  std::vector<std::pair<std::uint64_t, SimNanos>> log;

  void spawn(int depth, SimNanos at) {
    const std::uint64_t id = next_id++;
    engine.schedule_at(at, [this, id, depth] { fire(id, depth); });
  }

  void fire(std::uint64_t id, int depth) {
    log.emplace_back(id, engine.now());
    if (depth >= max_depth) return;
    std::uint64_t h = mix(id ^ seed);
    const int children = static_cast<int>(h % 3);
    for (int c = 0; c < children; ++c) {
      h = mix(h);
      SimNanos delta = 0;
      switch (h % 4) {
        case 0: delta = 0; break;  // same-timestamp: FIFO tie-break
        case 1: delta = static_cast<SimNanos>((h >> 8) % 500); break;
        case 2: delta = static_cast<SimNanos>(1'000 + (h >> 8) % 60'000); break;
        case 3: delta = static_cast<SimNanos>(1'000'000 + (h >> 8) % 10'000'000); break;
      }
      spawn(depth + 1, engine.now() + delta);
    }
  }
};

template <typename EngineT>
void seed_initial(Driver<EngineT>& driver, std::uint64_t seed, std::size_t count) {
  std::uint64_t h = mix(seed);
  for (std::size_t i = 0; i < count; ++i) {
    h = mix(h);
    driver.spawn(0, static_cast<SimNanos>(h % 5'000));
  }
}

template <typename EngineT>
Driver<EngineT> drain_workload(EngineT& engine, std::uint64_t seed, std::size_t initial,
                               int max_depth) {
  Driver<EngineT> driver{engine, seed, max_depth, 0, {}};
  seed_initial(driver, seed, initial);
  engine.run();
  return driver;
}

void expect_logs_equal(const std::vector<std::pair<std::uint64_t, SimNanos>>& calendar,
                       const std::vector<std::pair<std::uint64_t, SimNanos>>& reference) {
  ASSERT_EQ(calendar.size(), reference.size());
  for (std::size_t i = 0; i < calendar.size(); ++i) {
    ASSERT_EQ(calendar[i].first, reference[i].first) << "dispatch order diverged at " << i;
    ASSERT_EQ(calendar[i].second, reference[i].second) << "timestamp diverged at " << i;
  }
}

TEST(EngineEquivalence, DrainMatchesReferenceAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Engine calendar;
    ReferenceEngine reference;
    auto got = drain_workload(calendar, seed, 64, 8);
    auto want = drain_workload(reference, seed, 64, 8);
    expect_logs_equal(got.log, want.log);
    EXPECT_EQ(calendar.now(), reference.now());
    EXPECT_EQ(calendar.events_dispatched(), reference.events_dispatched());
    EXPECT_EQ(calendar.pending(), 0u);
  }
}

TEST(EngineEquivalence, SameTimestampBurstsDispatchFifo) {
  // Every initial event lands on one of two instants; children include
  // delta-0 chains. The FIFO tie-break must match the reference heap.
  Engine calendar;
  ReferenceEngine reference;
  Driver<Engine> got{calendar, 99, 6, 0, {}};
  Driver<ReferenceEngine> want{reference, 99, 6, 0, {}};
  for (int i = 0; i < 200; ++i) {
    got.spawn(0, i % 2 == 0 ? 1'000 : 2'000);
    want.spawn(0, i % 2 == 0 ? 1'000 : 2'000);
  }
  calendar.run();
  reference.run();
  expect_logs_equal(got.log, want.log);
  EXPECT_EQ(calendar.events_dispatched(), reference.events_dispatched());
}

TEST(EngineEquivalence, RunUntilDeadlinesWithInterleavedScheduling) {
  Engine calendar;
  ReferenceEngine reference;
  Driver<Engine> got{calendar, 7, 5, 0, {}};
  Driver<ReferenceEngine> want{reference, 7, 5, 0, {}};
  seed_initial(got, 7, 32);
  seed_initial(want, 7, 32);

  std::uint64_t h = mix(424242);
  SimNanos deadline = 0;
  for (int round = 0; round < 40; ++round) {
    h = mix(h);
    deadline += static_cast<SimNanos>(1 + h % 500'000);
    calendar.run_until(deadline);
    reference.run_until(deadline);
    ASSERT_EQ(calendar.now(), reference.now()) << "round " << round;
    ASSERT_EQ(calendar.pending(), reference.pending()) << "round " << round;
    // Mid-run arrivals: some land right at now(), some past the next
    // few deadlines, some far enough to overflow the ring.
    for (int extra = 0; extra < 3; ++extra) {
      h = mix(h);
      const auto delta = static_cast<SimNanos>(h % 3'000'000);
      got.spawn(0, calendar.now() + delta);
      want.spawn(0, reference.now() + delta);
    }
  }
  calendar.run();
  reference.run();
  expect_logs_equal(got.log, want.log);
  EXPECT_EQ(calendar.events_dispatched(), reference.events_dispatched());
}

TEST(EngineEquivalence, FarFutureTimersRideTheOverflow) {
  // Deltas far beyond the default ring window (4 ns * 16384 = ~64 us):
  // everything funnels through staging + sorted overflow + migration.
  Engine calendar;
  ReferenceEngine reference;
  Driver<Engine> got{calendar, 31, 4, 0, {}};
  Driver<ReferenceEngine> want{reference, 31, 4, 0, {}};
  std::uint64_t h = mix(31);
  for (int i = 0; i < 128; ++i) {
    h = mix(h);
    const auto at = static_cast<SimNanos>(h % 50'000'000);
    got.spawn(0, at);
    want.spawn(0, at);
  }
  calendar.run();
  reference.run();
  expect_logs_equal(got.log, want.log);
  EXPECT_EQ(calendar.now(), reference.now());
}

TEST(EngineEquivalence, MisfitCalendarKnobsStillExact) {
  // Pathological configs — a 2-bucket ring, giant buckets, 1 ns
  // buckets — must change performance only, never order.
  const CalendarConfig configs[] = {
      {.bucket_bits = 0, .bucket_count = 2},
      {.bucket_bits = 12, .bucket_count = 4},
      {.bucket_bits = 0, .bucket_count = 65536},
      {.bucket_bits = 6, .bucket_count = 64},
  };
  for (const CalendarConfig& config : configs) {
    Engine calendar(config);
    ReferenceEngine reference;
    auto got = drain_workload(calendar, 1234, 48, 7);
    auto want = drain_workload(reference, 1234, 48, 7);
    expect_logs_equal(got.log, want.log);
    EXPECT_EQ(calendar.now(), reference.now());
    EXPECT_EQ(calendar.events_dispatched(), reference.events_dispatched());
  }
}

TEST(EngineEquivalence, ScheduleAtInThePastClampsToNow) {
  Engine calendar;
  ReferenceEngine reference;
  std::vector<SimNanos> got_times;
  std::vector<SimNanos> want_times;
  calendar.schedule_at(1'000, [&] {
    calendar.schedule_at(10, [&] { got_times.push_back(calendar.now()); });
  });
  reference.schedule_at(1'000, [&] {
    reference.schedule_at(10, [&] { want_times.push_back(reference.now()); });
  });
  calendar.run();
  reference.run();
  EXPECT_EQ(got_times, want_times);
  EXPECT_EQ(got_times.size(), 1u);
  EXPECT_EQ(got_times[0], 1'000);
}

}  // namespace
}  // namespace harmless::sim
