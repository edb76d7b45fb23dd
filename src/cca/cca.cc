#include "src/cca/cca.h"

#include <algorithm>
#include <new>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/cca/bbr.h"
#include "src/cca/cubic.h"
#include "src/cca/new_reno.h"

namespace ccas {

namespace {

template <typename Cca>
CcaRow row(std::string name, CongestionController* (*construct)(void*, Rng&)) {
  // make_cca allocates a row with plain operator new.
  static_assert(alignof(Cca) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
  return CcaRow{std::move(name), sizeof(Cca), alignof(Cca), construct};
}

CongestionController* construct_newreno(void* mem, Rng& /*rng*/) {
  return new (mem) NewReno();
}

CongestionController* construct_cubic(void* mem, Rng& /*rng*/) {
  return new (mem) Cubic();
}

CongestionController* construct_bbr(void* mem, Rng& rng) {
  return new (mem) Bbr(BbrConfig{}, rng);
}

template <uint64_t kMinCwnd>
CongestionController* construct_bbr_mincwnd(void* mem, Rng& rng) {
  BbrConfig config;
  config.min_cwnd = kMinCwnd;
  return new (mem) Bbr(config, rng);
}

template <size_t... I>
std::vector<CcaRow> build_table(std::index_sequence<I...> /*rows*/) {
  std::vector<CcaRow> rows = {
      row<NewReno>("newreno", construct_newreno),
      row<Cubic>("cubic", construct_cubic),
      row<Bbr>("bbr", construct_bbr),
      row<Bbr>(bbr_mincwnd_cca(kBbrMinCwnds[I]),
               construct_bbr_mincwnd<kBbrMinCwnds[I]>)...,
  };
  std::sort(rows.begin(), rows.end(),
            [](const CcaRow& a, const CcaRow& b) { return a.name < b.name; });
  return rows;
}

}  // namespace

std::string bbr_mincwnd_cca(uint64_t min_cwnd) {
  return "bbr-mincwnd-" + std::to_string(min_cwnd);
}

std::span<const CcaRow> cca_table() {
  static const std::vector<CcaRow> table =
      build_table(std::make_index_sequence<std::size(kBbrMinCwnds)>{});
  return table;
}

const CcaRow& cca_row(std::string_view name) {
  for (const CcaRow& r : cca_table()) {
    if (r.name == name) return r;
  }
  std::string known;
  for (const CcaRow& r : cca_table()) known += (known.empty() ? "" : ", ") + r.name;
  throw std::invalid_argument("unknown CCA '" + std::string(name) + "' (known: " +
                              known + ")");
}

std::unique_ptr<CongestionController> make_cca(const std::string& name, Rng& rng) {
  const CcaRow& r = cca_row(name);
  // Deleting the controller through its virtual destructor hands this
  // storage back to the sized operator delete, with size == sizeof(Cca).
  void* mem = ::operator new(r.size);
  try {
    return std::unique_ptr<CongestionController>(r.construct(mem, rng));
  } catch (...) {
    ::operator delete(mem);
    throw;
  }
}

}  // namespace ccas
