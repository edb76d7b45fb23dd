#include "src/harness/flow_table.h"

#include <new>
#include <utility>

#include "src/cca/cca.h"

namespace ccas {

namespace {

constexpr size_t align_up(size_t v, size_t a) { return (v + a - 1) & ~(a - 1); }

}  // namespace

FlowTable::~FlowTable() {
  // Reverse index order mirrors the reverse-construction teardown the
  // arena's dtor list used to perform for the make_unique-era objects.
  for (size_t i = entries_.size(); i-- > 0;) {
    if (entries_[i].live) destroy_objects(entries_[i]);
  }
}

FlowTable::Slot FlowTable::create(Simulator& sim, uint32_t flow_id,
                                  Rng&& flow_rng, const std::string& cca_name,
                                  PacketSink* data_path, PacketSink* ack_path,
                                  const TcpSenderConfig& sender_config,
                                  const TcpReceiverConfig& receiver_config) {
  const CcaRow& row = cca_row(cca_name);

  // Slab layout: [Rng][TcpReceiver][TcpSender][CCA], alignment-padded.
  const size_t off_rng = 0;
  const size_t off_recv =
      align_up(off_rng + sizeof(Rng), alignof(TcpReceiver));
  const size_t off_send =
      align_up(off_recv + sizeof(TcpReceiver), alignof(TcpSender));
  const size_t off_cca = align_up(off_send + sizeof(TcpSender), row.align);
  const size_t end = off_cca + row.size;
  const auto slab_bytes = static_cast<uint32_t>(align_up(end, kSlabAlign));

  // Reuse a parked slab of the same size class if one exists.
  void* slab = nullptr;
  if (auto it = free_slabs_.find(slab_bytes);
      it != free_slabs_.end() && !it->second.empty()) {
    slab = it->second.back();
    it->second.pop_back();
    ++slab_reuses_;
  } else {
    slab = arena_.allocate(slab_bytes, kSlabAlign);
    ++slabs_allocated_;
  }
  auto* base = static_cast<char*>(slab);

  // Historical construction order: rng -> receiver -> cca -> sender.
  auto* rng = new (base + off_rng) Rng(std::move(flow_rng));
  TcpReceiver* receiver = nullptr;
  TcpSender* sender = nullptr;
  CongestionController* cca = nullptr;
  try {
    receiver =
        new (base + off_recv) TcpReceiver(sim, flow_id, ack_path, receiver_config);
    cca = row.construct(base + off_cca, *rng);
    sender = new (base + off_send)
        TcpSender(sim, flow_id, cca, data_path, sender_config);
  } catch (...) {
    if (cca != nullptr) cca->~CongestionController();
    if (receiver != nullptr) receiver->~TcpReceiver();
    rng->~Rng();
    free_slabs_[slab_bytes].push_back(slab);
    throw;
  }

  uint32_t index;
  if (!free_entries_.empty()) {
    index = free_entries_.back();
    free_entries_.pop_back();
  } else {
    index = static_cast<uint32_t>(entries_.size());
    entries_.emplace_back();
  }
  Entry& e = entries_[index];
  e.slab = slab;
  e.slab_bytes = slab_bytes;
  e.live = true;
  e.rng = rng;
  e.receiver = receiver;
  e.sender = sender;
  e.cca = cca;
  ++live_;

  return Slot{rng, receiver, sender, index};
}

void FlowTable::destroy_objects(Entry& e) {
  // Reverse of construction order.
  e.sender->~TcpSender();
  e.cca->~CongestionController();
  e.receiver->~TcpReceiver();
  e.rng->~Rng();
  e.live = false;
}

void FlowTable::recycle(const Slot& slot) {
  Entry& e = entries_[slot.index];
  destroy_objects(e);
  free_slabs_[e.slab_bytes].push_back(e.slab);
  free_entries_.push_back(slot.index);
  --live_;
  ++slabs_recycled_;
}

}  // namespace ccas
