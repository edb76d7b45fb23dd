// Tests for the hot-path containers: RunList (run-length interval set
// behind the SACK scoreboard and the receiver's reassembly tracker) and
// RingBuffer (the deque replacement on the packet FIFOs and the scoreboard
// window), and LanePool (NetemDelay's lanes). RunList is additionally
// property-checked against std::set, LanePool against std::deque.
#include <gtest/gtest.h>

#include <deque>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "src/util/lane_pool.h"
#include "src/util/ring_buffer.h"
#include "src/util/rng.h"
#include "src/util/run_list.h"

namespace ccas {
namespace {

std::vector<std::pair<uint64_t, uint64_t>> runs_of(const RunList& rl) {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  for (size_t i = 0; i < rl.run_count(); ++i) {
    out.emplace_back(rl.run(i).start, rl.run(i).end);
  }
  return out;
}

TEST(RunList, StartsEmpty) {
  RunList rl;
  EXPECT_TRUE(rl.empty());
  EXPECT_EQ(rl.run_count(), 0u);
  EXPECT_FALSE(rl.contains(0));
  EXPECT_FALSE(rl.first_at_or_after(0).has_value());
}

TEST(RunList, AddMergesOverlappingAndAdjacent) {
  RunList rl;
  rl.add(10, 20);
  rl.add(30, 40);
  rl.add(20, 30);  // adjacent on both sides: everything fuses
  ASSERT_EQ(rl.run_count(), 1u);
  EXPECT_EQ(rl.run(0).start, 10u);
  EXPECT_EQ(rl.run(0).end, 40u);
}

TEST(RunList, AddKeepsDisjointRunsSorted) {
  RunList rl;
  rl.add(50, 60);
  rl.add(10, 20);
  rl.add(30, 40);
  EXPECT_EQ(runs_of(rl),
            (std::vector<std::pair<uint64_t, uint64_t>>{{10, 20}, {30, 40}, {50, 60}}));
  EXPECT_TRUE(rl.contains(35));
  EXPECT_FALSE(rl.contains(25));
  EXPECT_EQ(rl.first_at_or_after(25).value(), 30u);
  EXPECT_EQ(rl.first_at_or_after(35).value(), 35u);
  EXPECT_FALSE(rl.first_at_or_after(60).has_value());
}

TEST(RunList, RemoveSplitsTrimsAndDeletes) {
  RunList rl;
  rl.add(0, 100);
  rl.remove(40, 60);  // split in the middle
  EXPECT_EQ(runs_of(rl),
            (std::vector<std::pair<uint64_t, uint64_t>>{{0, 40}, {60, 100}}));
  rl.remove(30, 70);  // right-trim + left-trim across the gap
  EXPECT_EQ(runs_of(rl),
            (std::vector<std::pair<uint64_t, uint64_t>>{{0, 30}, {70, 100}}));
  rl.remove(0, 30);  // exact deletion of the first run
  EXPECT_EQ(runs_of(rl), (std::vector<std::pair<uint64_t, uint64_t>>{{70, 100}}));
  rl.remove(200, 300);  // no overlap: no-op
  EXPECT_EQ(rl.run_count(), 1u);
}

TEST(RunList, RunContaining) {
  RunList rl;
  rl.add(10, 20);
  const auto r = rl.run_containing(15);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->start, 10u);
  EXPECT_EQ(r->end, 20u);
  EXPECT_FALSE(rl.run_containing(20).has_value());  // end is exclusive
}

TEST(RunList, EraseBelowErodesFront) {
  RunList rl;
  for (uint64_t i = 0; i < 100; ++i) rl.add(i * 10, i * 10 + 5);
  rl.erase_below(501);  // drops 50 runs, trims the 51st
  EXPECT_EQ(rl.run_count(), 50u);
  EXPECT_EQ(rl.run(0).start, 501u);
  EXPECT_EQ(rl.run(0).end, 505u);
  EXPECT_FALSE(rl.contains(500));
  EXPECT_TRUE(rl.contains(501));
  // Erase-below inside a gap leaves the next run whole.
  rl.erase_below(508);
  EXPECT_EQ(rl.run(0).start, 510u);
}

TEST(RunList, ForEachGapEmitsComplement) {
  RunList rl;
  rl.add(10, 20);
  rl.add(30, 40);
  std::vector<std::pair<uint64_t, uint64_t>> gaps;
  rl.for_each_gap(0, 50, [&](uint64_t a, uint64_t b) { gaps.emplace_back(a, b); });
  EXPECT_EQ(gaps,
            (std::vector<std::pair<uint64_t, uint64_t>>{{0, 10}, {20, 30}, {40, 50}}));
  gaps.clear();
  rl.for_each_gap(12, 18, [&](uint64_t a, uint64_t b) { gaps.emplace_back(a, b); });
  EXPECT_TRUE(gaps.empty());  // fully covered
  gaps.clear();
  rl.for_each_gap(15, 35, [&](uint64_t a, uint64_t b) { gaps.emplace_back(a, b); });
  EXPECT_EQ(gaps, (std::vector<std::pair<uint64_t, uint64_t>>{{20, 30}}));
}

// Property check against std::set over a bounded universe: every mixed
// add/remove/erase_below trace must leave membership, ordering queries and
// gap walks identical.
TEST(RunListProperty, MatchesSetSemantics) {
  for (const uint64_t seed : {1u, 2u, 42u, 1234u}) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    RunList rl;
    std::set<uint64_t> ref;
    constexpr uint64_t kUniverse = 400;
    uint64_t floor = 0;  // erase_below is monotone, as in the scoreboard
    for (int step = 0; step < 3000; ++step) {
      const uint64_t op = rng() % 100;
      const uint64_t a = floor + rng() % (kUniverse - floor);
      const uint64_t b = a + 1 + rng() % 12;
      if (op < 45) {
        rl.add(a, b);
        for (uint64_t v = a; v < b; ++v) ref.insert(v);
      } else if (op < 80) {
        rl.remove(a, b);
        for (uint64_t v = a; v < b; ++v) ref.erase(v);
      } else if (op < 90) {
        floor = std::min(a, kUniverse - 1);
        rl.erase_below(floor);
        ref.erase(ref.begin(), ref.lower_bound(floor));
      } else {
        std::vector<std::pair<uint64_t, uint64_t>> gaps;
        rl.for_each_gap(a, b, [&](uint64_t ga, uint64_t gb) {
          gaps.emplace_back(ga, gb);
        });
        for (uint64_t v = a; v < b; ++v) {
          const bool in_gap = [&] {
            for (const auto& [ga, gb] : gaps) {
              if (v >= ga && v < gb) return true;
            }
            return false;
          }();
          ASSERT_NE(in_gap, ref.count(v) > 0) << "gap v=" << v << " step " << step;
        }
      }
      // Membership and first_at_or_after at a few probe points.
      for (int probe = 0; probe < 4; ++probe) {
        const uint64_t v = floor + rng() % (kUniverse - floor);
        ASSERT_EQ(rl.contains(v), ref.count(v) > 0) << "v=" << v << " step " << step;
        const auto got = rl.first_at_or_after(v);
        const auto it = ref.lower_bound(v);
        if (it == ref.end()) {
          ASSERT_FALSE(got.has_value()) << "v=" << v << " step " << step;
        } else {
          ASSERT_TRUE(got.has_value()) << "v=" << v << " step " << step;
          ASSERT_EQ(*got, *it) << "v=" << v << " step " << step;
        }
      }
      // Structural invariant: sorted, disjoint, non-adjacent, non-empty.
      for (size_t i = 0; i < rl.run_count(); ++i) {
        ASSERT_LT(rl.run(i).start, rl.run(i).end) << "step " << step;
        if (i > 0) {
          // prev.end < start (adjacent runs would have merged)
          ASSERT_LT(rl.run(i - 1).end, rl.run(i).start) << "step " << step;
        }
      }
    }
  }
}

TEST(LanePool, LanesAreIndependentFifos) {
  LanePool<int, 4> pool;
  std::vector<LanePool<int, 4>::Lane> lanes(3);
  std::vector<std::deque<int>> ref(3);
  Rng rng(17);
  for (int i = 0; i < 5000; ++i) {
    const size_t l = rng.next_below(3);
    if (ref[l].empty() || rng.next_below(100) < 55) {
      pool.push_back(lanes[l], int{i});
      ref[l].push_back(i);
    } else {
      ASSERT_EQ(pool.front(lanes[l]), ref[l].front());
      ASSERT_EQ(pool.pop_front(lanes[l]), ref[l].front());
      ref[l].pop_front();
    }
    ASSERT_EQ(lanes[l].empty(), ref[l].empty());
  }
}

TEST(LanePool, DrainedChunksAreRecycled) {
  LanePool<int, 4> pool;
  LanePool<int, 4>::Lane a;
  LanePool<int, 4>::Lane b;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 10; ++i) pool.push_back(round % 2 == 0 ? a : b, int{i});
    for (int i = 0; i < 10; ++i) EXPECT_EQ(pool.pop_front(round % 2 == 0 ? a : b), i);
  }
  EXPECT_TRUE(a.empty());
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(pool.chunks(), 3u);  // ceil(10 / 4): the high-water mark
}

TEST(RingBuffer, PushPopFifoAcrossGrowth) {
  RingBuffer<int> rb;
  EXPECT_TRUE(rb.empty());
  for (int i = 0; i < 100; ++i) rb.push_back(i);  // forces several growths
  EXPECT_EQ(rb.size(), 100u);
  EXPECT_EQ(rb.front(), 0);
  EXPECT_EQ(rb.back(), 99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rb.pop_front(), i);
  EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, WrapsAroundWithoutGrowing) {
  RingBuffer<int> rb;
  // Breathe below capacity so head_ wraps the power-of-two buffer.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 7; ++i) rb.push_back(round * 7 + i);
    for (int i = 0; i < 7; ++i) EXPECT_EQ(rb.pop_front(), round * 7 + i);
  }
  EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, IndexAndEmplace) {
  RingBuffer<std::string> rb;
  rb.push_back("a");
  rb.emplace_back() = "b";
  rb.push_back("c");
  rb.drop_front();
  EXPECT_EQ(rb[0], "b");
  EXPECT_EQ(rb[1], "c");
  rb[1] = "C";
  EXPECT_EQ(rb.back(), "C");
  rb.clear();
  EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, GrowPreservesOrderWhenWrapped) {
  RingBuffer<int> rb;
  for (int i = 0; i < 16; ++i) rb.push_back(i);  // fill initial capacity
  for (int i = 0; i < 10; ++i) rb.drop_front();
  for (int i = 16; i < 40; ++i) rb.push_back(i);  // wraps, then grows
  EXPECT_EQ(rb.size(), 30u);
  for (int i = 10; i < 40; ++i) EXPECT_EQ(rb.pop_front(), i);
}

}  // namespace
}  // namespace ccas
