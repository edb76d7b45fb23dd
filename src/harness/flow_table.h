// Arena-backed per-flow object table (DESIGN.md §12).
//
// Historically every flow's sender, receiver, CCA and per-flow Rng were
// separate make_unique heap islands; at CoreScale (20k flows) each
// dispatched event then pointer-chased across a working set far larger
// than cache, and per-event cost grew with flow count. The FlowTable packs
// all four objects into one contiguous, 64-byte-aligned slab per flow,
// allocated from a MonotonicArena, so the state an event touches is one
// local neighbourhood:
//
//   [Rng][TcpReceiver][TcpSender][CCA]      (one slab, alignment-padded)
//
// Construction order inside a slot is exactly the historical order
// (rng -> receiver -> cca -> sender), so per-flow RNG streams — and
// therefore every golden digest — are byte-identical to the make_unique
// path. The CCA is placement-constructed from its row of the fixed CCA
// table (src/cca/cca.h), so every controller is slab-resident.
//
// recycle() destroys a slot's objects and parks the slab on a size-keyed
// free list; the next create() of a same-sized slot (the common case in
// churn: same CCA type) reuses it without touching the heap or growing the
// arena. The caller owns the safety argument: no pending event — packet in
// flight or lazy timer entry — may still reference the slot's endpoints
// when recycle() runs (see the workload engine's grace-period reaper).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/tcp/tcp_receiver.h"
#include "src/tcp/tcp_sender.h"
#include "src/util/arena.h"
#include "src/util/rng.h"

namespace ccas {

class FlowTable {
 public:
  // Handle to one live flow slot.
  struct Slot {
    Rng* rng = nullptr;
    TcpReceiver* receiver = nullptr;
    TcpSender* sender = nullptr;
    uint32_t index = 0;  // FlowTable bookkeeping handle, not the flow id
  };

  FlowTable() = default;
  ~FlowTable();
  FlowTable(const FlowTable&) = delete;
  FlowTable& operator=(const FlowTable&) = delete;

  // Builds one flow's objects in a single contiguous slab. `flow_rng` is
  // moved into the slab (callers pass master_rng.fork() exactly where the
  // make_unique path did, keeping stream assignment identical).
  Slot create(Simulator& sim, uint32_t flow_id, Rng&& flow_rng,
              const std::string& cca_name, PacketSink* data_path,
              PacketSink* ack_path, const TcpSenderConfig& sender_config,
              const TcpReceiverConfig& receiver_config);

  // Destroys the slot's objects and parks its slab for reuse. The caller
  // must guarantee no queued event still references the endpoints.
  void recycle(const Slot& slot);

  [[nodiscard]] size_t live() const { return live_; }
  [[nodiscard]] uint64_t slabs_allocated() const { return slabs_allocated_; }
  [[nodiscard]] uint64_t slabs_recycled() const { return slabs_recycled_; }
  [[nodiscard]] uint64_t slab_reuses() const { return slab_reuses_; }
  [[nodiscard]] size_t arena_bytes() const { return arena_.bytes_used(); }

  // Slabs are aligned (and size-rounded) to the cache-line size, so two
  // flows never share a line.
  static constexpr size_t kSlabAlign = 64;

 private:
  struct Entry {
    void* slab = nullptr;
    uint32_t slab_bytes = 0;
    bool live = false;
    Rng* rng = nullptr;
    TcpReceiver* receiver = nullptr;
    TcpSender* sender = nullptr;
    CongestionController* cca = nullptr;
  };

  void destroy_objects(Entry& e);

  MonotonicArena arena_;
  std::vector<Entry> entries_;
  std::vector<uint32_t> free_entries_;
  // Recycled slabs keyed by slab size (distinct CCA types of equal padded
  // footprint share a bucket; the memory is raw either way).
  std::unordered_map<uint32_t, std::vector<void*>> free_slabs_;
  size_t live_ = 0;
  uint64_t slabs_allocated_ = 0;
  uint64_t slabs_recycled_ = 0;
  uint64_t slab_reuses_ = 0;
};

}  // namespace ccas
