// Tests for the memory architecture (DESIGN.md §12): the monotonic arena,
// the NodePool size-class recycler, the global allocation counter, the
// lazy-timer pending-entry tracking the churn reaper relies on, and the
// arena-backed FlowTable with slab recycling.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/cca/cca.h"
#include "src/harness/flow_table.h"
#include "src/net/packet.h"
#include "src/sim/simulator.h"
#include "src/sim/timer.h"
#include "src/util/alloc_counter.h"
#include "src/util/arena.h"
#include "src/util/node_pool.h"

namespace ccas {
namespace {

// ------------------------------------------------------------ arena ----

TEST(Arena, HonorsAlignment) {
  MonotonicArena arena;
  // Interleave odd sizes with every power-of-two alignment the simulator
  // uses; each returned pointer must satisfy its own request.
  for (int round = 0; round < 64; ++round) {
    for (size_t align : {size_t{1}, size_t{8}, size_t{16}, size_t{64},
                         size_t{128}}) {
      void* p = arena.allocate(1 + static_cast<size_t>(round) * 7, align);
      EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % align, 0u)
          << "align " << align << " round " << round;
    }
  }
}

TEST(Arena, AllocationsDoNotOverlap) {
  MonotonicArena arena(1 << 12);  // small blocks force frequent growth
  std::vector<std::pair<unsigned char*, size_t>> out;
  size_t next = 1;
  for (int i = 0; i < 200; ++i) {
    const size_t bytes = next;
    next = next * 3 % 1000 + 1;
    auto* p = static_cast<unsigned char*>(arena.allocate(bytes, 8));
    std::memset(p, i & 0xff, bytes);
    out.emplace_back(p, bytes);
  }
  // Every region still holds its fill pattern: no overlap, no relocation.
  for (size_t i = 0; i < out.size(); ++i) {
    for (size_t b = 0; b < out[i].second; ++b) {
      ASSERT_EQ(out[i].first[b], static_cast<unsigned char>(i & 0xff));
    }
  }
}

TEST(Arena, GeometricGrowthConcentratesBlocks) {
  MonotonicArena arena(1 << 16);
  // 16 MB in 1 KB pieces: doubling block sizes must need far fewer blocks
  // than the 256 a fixed 64 KB block size would.
  for (int i = 0; i < 16 * 1024; ++i) (void)arena.allocate(1024, 8);
  EXPECT_GE(arena.bytes_used(), size_t{16} << 20);
  EXPECT_LE(arena.blocks(), 12u);
}

TEST(Arena, HugeBlockPathIsWritable) {
  // A block at or above 2 MB takes the huge-page-aligned path; the memory
  // must be usable end to end regardless of whether the aligned
  // allocation (or the madvise) succeeded.
  MonotonicArena arena(size_t{4} << 20);
  auto* p = static_cast<unsigned char*>(arena.allocate(size_t{3} << 20, 64));
  p[0] = 0xab;
  p[(size_t{3} << 20) - 1] = 0xcd;
  EXPECT_EQ(p[0], 0xab);
  EXPECT_EQ(p[(size_t{3} << 20) - 1], 0xcd);
}

TEST(Arena, RunsDestructorsInReverseOrder) {
  std::vector<int> order;
  struct Tracer {
    std::vector<int>* order;
    int id;
    ~Tracer() { order->push_back(id); }
  };
  {
    MonotonicArena arena;
    for (int i = 0; i < 4; ++i) arena.make<Tracer>(&order, i);
  }
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1, 0}));
}

// --------------------------------------------------------- node pool ----

TEST(NodePool, RecyclesWithinSizeClass) {
  NodePool pool;
  void* a = pool.allocate(40);  // class 64
  pool.deallocate(a, 40);
  void* b = pool.allocate(60);  // same class: must reuse the freed block
  EXPECT_EQ(a, b);
  EXPECT_EQ(pool.reused_blocks(), 1u);
  EXPECT_EQ(pool.fresh_blocks(), 1u);
}

TEST(NodePool, ClassesAreIndependent) {
  NodePool pool;
  void* small = pool.allocate(16);
  pool.deallocate(small, 16);
  void* big = pool.allocate(200);  // different class: fresh block
  EXPECT_NE(small, big);
  EXPECT_EQ(pool.reused_blocks(), 0u);
}

TEST(NodePool, SizeClassRounding) {
  EXPECT_EQ(NodePool::class_index(1), 0u);
  EXPECT_EQ(NodePool::class_index(16), 0u);
  EXPECT_EQ(NodePool::class_index(17), 1u);
  EXPECT_EQ(NodePool::class_index(64), 2u);
  EXPECT_EQ(NodePool::class_bytes(0), 16u);
  EXPECT_EQ(NodePool::class_bytes(3), 128u);
}

TEST(NodePool, SteadyStateChurnTouchesHeapOnce) {
  NodePool pool;
  // Reach the high-water set, then churn: the heap-allocation counter must
  // not move once every class has its free block.
  void* warm = pool.allocate(48);
  pool.deallocate(warm, 48);
  const uint64_t before = thread_heap_allocs();
  for (int i = 0; i < 10'000; ++i) {
    void* p = pool.allocate(48);
    pool.deallocate(p, 48);
  }
  EXPECT_EQ(thread_heap_allocs(), before);
}

// ------------------------------------------------------ alloc counter ----

TEST(AllocCounter, CountsOperatorNew) {
  const uint64_t before = thread_heap_allocs();
  void* p = ::operator new(32);
  ::operator delete(p);
  EXPECT_GE(thread_heap_allocs(), before + 1);
}

// ---------------------------------------------- timer pending entries ----

TEST(TimerPending, CancelledEntryStaysPendingUntilItDrains) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  t.arm_at(Time::nanos(100));
  EXPECT_TRUE(t.has_pending_entry());
  EXPECT_EQ(t.pending_entry_at(), Time::nanos(100));

  // Cancel is lazy: the queue entry survives the cancel, so the owner (a
  // churn flow slab) must stay alive until it drains.
  t.cancel();
  EXPECT_TRUE(t.has_pending_entry());

  sim.run_until(Time::nanos(200));
  EXPECT_FALSE(t.has_pending_entry());
  EXPECT_EQ(t.pending_entry_at(), Time::zero());
  EXPECT_EQ(fired, 0);
}

TEST(TimerPending, RearmEarlierTracksTheLatestEntry) {
  Simulator sim;
  Timer t(sim, [] {});
  t.arm_at(Time::nanos(1000));
  t.arm_at(Time::nanos(10));  // earlier: pushes a second entry
  EXPECT_TRUE(t.has_pending_entry());
  // Both entries are pending; the reaper must wait for the *last* one.
  EXPECT_EQ(t.pending_entry_at(), Time::nanos(1000));
  sim.run_until(Time::nanos(500));
  EXPECT_TRUE(t.has_pending_entry());  // the stale 1000ns entry remains
  sim.run_until(Time::nanos(2000));
  EXPECT_FALSE(t.has_pending_entry());
}

// --------------------------------------------------------- flow table ----

class NullSink final : public PacketSink {
 public:
  void accept(Packet&& /*pkt*/) override {}
};

TEST(FlowTable, SlabsAreCacheLineAlignedAndDisjoint) {
  Simulator sim;
  NullSink sink;
  FlowTable table;
  std::vector<FlowTable::Slot> slots;
  for (uint32_t id = 0; id < 8; ++id) {
    slots.push_back(table.create(sim, id, Rng(id + 1), "newreno", &sink,
                                 &sink, TcpSenderConfig{},
                                 TcpReceiverConfig{}));
  }
  for (const FlowTable::Slot& s : slots) {
    // The Rng heads the slab; slabs are 64-byte aligned.
    EXPECT_EQ(reinterpret_cast<uintptr_t>(s.rng) % FlowTable::kSlabAlign, 0u);
    // Objects of one flow are one contiguous neighbourhood, in
    // construction order.
    EXPECT_LT(reinterpret_cast<uintptr_t>(s.rng),
              reinterpret_cast<uintptr_t>(s.receiver));
    EXPECT_LT(reinterpret_cast<uintptr_t>(s.receiver),
              reinterpret_cast<uintptr_t>(s.sender));
  }
  EXPECT_EQ(table.live(), 8u);
  EXPECT_EQ(table.slabs_allocated(), 8u);
}

TEST(FlowTable, RecycleParksAndReusesTheSlab) {
  Simulator sim;
  NullSink sink;
  FlowTable table;
  FlowTable::Slot a = table.create(sim, 0, Rng(1), "cubic", &sink, &sink,
                                   TcpSenderConfig{}, TcpReceiverConfig{});
  void* slab = a.rng;
  table.recycle(a);
  EXPECT_EQ(table.live(), 0u);
  EXPECT_EQ(table.slabs_recycled(), 1u);

  FlowTable::Slot b = table.create(sim, 1, Rng(2), "cubic", &sink, &sink,
                                   TcpSenderConfig{}, TcpReceiverConfig{});
  EXPECT_EQ(static_cast<void*>(b.rng), slab);  // same memory, no new slab
  EXPECT_EQ(table.slab_reuses(), 1u);
  EXPECT_EQ(table.slabs_allocated(), 1u);
}

TEST(FlowTable, ChurnReusesWithoutGrowingTheArena) {
  Simulator sim;
  NullSink sink;
  FlowTable table;
  // Warm up one slab, then churn create/recycle: arena usage must not grow
  // and (steady state) the heap must not be touched.
  FlowTable::Slot warm = table.create(sim, 0, Rng(1), "newreno", &sink,
                                      &sink, TcpSenderConfig{},
                                      TcpReceiverConfig{});
  table.recycle(warm);
  const size_t arena_high_water = table.arena_bytes();
  const uint64_t heap_before = thread_heap_allocs();
  for (uint32_t i = 1; i <= 500; ++i) {
    FlowTable::Slot s = table.create(sim, i, Rng(i), "newreno", &sink, &sink,
                                     TcpSenderConfig{}, TcpReceiverConfig{});
    table.recycle(s);
  }
  EXPECT_EQ(table.arena_bytes(), arena_high_water);
  EXPECT_EQ(table.slab_reuses(), 500u);
  EXPECT_EQ(thread_heap_allocs(), heap_before);
}

TEST(FlowTable, BuildsEveryRegisteredCca) {
  Simulator sim;
  NullSink sink;
  FlowTable table;
  uint32_t id = 0;
  for (const CcaRow& row : cca_table()) {
    const std::string& cca = row.name;
    FlowTable::Slot s = table.create(sim, id, Rng(id + 1), cca, &sink, &sink,
                                     TcpSenderConfig{}, TcpReceiverConfig{});
    ASSERT_NE(s.sender, nullptr) << cca;
    ASSERT_NE(s.receiver, nullptr) << cca;
    // The controller lives in the flow's slab, right after its sender.
    const auto* sender_end = reinterpret_cast<const char*>(s.sender) + sizeof(TcpSender);
    const auto* cca_at = reinterpret_cast<const char*>(&s.sender->cca());
    EXPECT_GE(cca_at, sender_end) << cca;
    EXPECT_LT(cca_at, sender_end + row.align) << cca;
    table.recycle(s);
    ++id;
  }
}

TEST(FlowTable, SendersAreFunctionalFromSlabs) {
  // A slab-resident sender/receiver pair must complete a transfer exactly
  // like the heap-allocated originals (wired back to back through delay
  // lines in churn_test.cc style; here a loopback suffices: sender's data
  // goes straight to the receiver, ACKs straight back).
  Simulator sim;
  FlowTable table;

  class Wire final : public PacketSink {
   public:
    void accept(Packet&& pkt) override { target->accept(std::move(pkt)); }
    PacketSink* target = nullptr;
  };
  Wire to_receiver;
  Wire to_sender;
  TcpSenderConfig cfg;
  cfg.data_segments = 25;
  FlowTable::Slot s = table.create(sim, 0, Rng(3), "newreno", &to_receiver,
                                   &to_sender, cfg, TcpReceiverConfig{});
  to_receiver.target = s.receiver;
  to_sender.target = s.sender;
  s.sender->start();
  sim.run();
  EXPECT_TRUE(s.sender->complete());
  EXPECT_EQ(s.receiver->rcv_nxt(), 25u);
}

}  // namespace
}  // namespace ccas
