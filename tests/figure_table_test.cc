// The figure table (bench/figures.cc) registers exactly the cells the 17
// per-figure bench binaries it replaced did, so their cache entries and
// results carry over unchanged.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <iterator>
#include <set>
#include <string>
#include <utility>

#include "bench/figures.h"
#include "src/cca/cca.h"
#include "src/harness/cli.h"
#include "src/sweep/spec_hash.h"

namespace ccas::bench {
namespace {

// FNV-1a over "<cell name>\t<spec_cache_key, 16 hex digits>\n" per cell,
// in grid order.
uint64_t grid_digest(const Grid& grid) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const FigureCell& cell : grid) {
    char key[32];
    std::snprintf(key, sizeof(key), "\t%016llx\n",
                  static_cast<unsigned long long>(sweep::spec_cache_key(cell.spec)));
    for (const char c : cell.name + key) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

void unset_repro_env() {
  for (const char* v :
       {"REPRO_SCALE", "REPRO_WARMUP_SEC", "REPRO_MEASURE_SEC", "REPRO_STAGGER_SEC"}) {
    ::unsetenv(v);
  }
}

TEST(FigureTable, GridsMatchParentBenches) {
  // (cell count, grid_digest) of each replaced bench's registered cells at
  // the default REPRO_SCALE=0.2, recorded from the bench binaries
  // themselves. Table 1, Figs 2-3 and burstiness share one Mathis grid.
  const std::map<std::string, std::pair<size_t, uint64_t>> expected = {
      {"table1", {6, 0x6ce6e1e8f98ad5ccULL}},
      {"fig2", {6, 0x6ce6e1e8f98ad5ccULL}},
      {"fig3", {6, 0x6ce6e1e8f98ad5ccULL}},
      {"burstiness", {6, 0x6ce6e1e8f98ad5ccULL}},
      {"finding4", {6, 0x4413bd205d7dc773ULL}},
      {"fig4", {18, 0xaa371c2e5e9b01b2ULL}},
      {"fig5", {9, 0xa08979c9307a03bcULL}},
      {"fig6", {9, 0xbe3df4ee260de2ffULL}},
      {"fig7", {9, 0x65de448a1c541362ULL}},
      {"fig8", {18, 0x96fc0566414075a2ULL}},
      {"ablation_delack", {4, 0xed32b1286df3c8afULL}},
      {"ablation_buffer", {3, 0xe69aae6d05c3dd03ULL}},
      {"ablation_bbr_mincwnd", {3, 0x08c50bce05f648b0ULL}},
      {"ablation_sack", {4, 0x2fbdf06246ea6937ULL}},
      {"netem_grid", {15, 0x14a41bf04e6cadc0ULL}},
      {"aqm_grid", {40, 0xc38560fd4e361c6eULL}},
      {"userscale", {7, 0x8c03df4a8eb35bfcULL}},
  };
  unset_repro_env();
  ASSERT_EQ(figure_table().size(), expected.size());
  for (const Figure& figure : figure_table()) {
    SCOPED_TRACE(figure.id);
    const auto it = expected.find(figure.id);
    ASSERT_NE(it, expected.end());
    const Grid grid = figure.grid();
    std::set<std::string> names;
    for (const FigureCell& cell : grid) {
      EXPECT_TRUE(names.insert(cell.name).second) << "duplicate cell " << cell.name;
    }
    EXPECT_EQ(grid.size(), it->second.first);
    EXPECT_EQ(grid_digest(grid), it->second.second);
  }
}

TEST(FigureTable, EveryCellReplays) {
  // A quarantined cell's .repro is its spec_to_cli command line, run by a
  // fresh ccas_run: every cell it can render must parse back to the same
  // cache key, the min-cwnd ablation's table-only CCA names included.
  unset_repro_env();
  size_t replayed = 0;
  size_t mincwnd_replayed = 0;
  for (const Figure& figure : figure_table()) {
    for (const FigureCell& cell : figure.grid()) {
      SCOPED_TRACE(figure.id + ": " + cell.name);
      const SpecCliRendering rendering = spec_to_cli(cell.spec);
      if (!rendering.notes.empty()) continue;
      CliOptions parsed;
      ASSERT_NO_THROW(parsed = parse_cli(rendering.args))
          << spec_to_cli_command(cell.spec);
      EXPECT_EQ(sweep::spec_cache_key(parsed.spec), sweep::spec_cache_key(cell.spec));
      ++replayed;
      if (figure.id == "ablation_bbr_mincwnd") ++mincwnd_replayed;
    }
  }
  EXPECT_GT(replayed, 0u);
  EXPECT_EQ(mincwnd_replayed, std::size(kBbrMinCwnds));
}

}  // namespace
}  // namespace ccas::bench
