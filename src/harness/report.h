// Fixed-width console tables used by ccas_figures and examples to print the
// same rows/series the paper's tables and figures report.
#pragma once

#include <string>
#include <vector>

#include "src/harness/experiment.h"

namespace ccas {

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  Table& add_row(std::vector<std::string> cells);

  class Row {
   public:
    explicit Row(Table& t) : table_(t) {}
    Row& col(const std::string& s);
    Row& col(double v, int precision = 3);
    Row& col(int64_t v);
    Row& pct(double fraction, int precision = 1);  // renders 0.42 -> "42.0%"
    void done();

   private:
    Table& table_;
    std::vector<std::string> cells_;
  };
  [[nodiscard]] Row row() { return Row(*this); }

  // Renders with column alignment and a separator under the header.
  [[nodiscard]] std::string to_string() const;
  void print() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// One-paragraph summary of an experiment (groups, shares, JFIs, queue).
[[nodiscard]] std::string summarize(const ExperimentResult& result);

// Formats a rate like the paper's axes ("4.02 Gbps", "1.2 Mbps").
[[nodiscard]] std::string format_rate(double bps);

}  // namespace ccas
