#include "src/workload/spec.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "src/cca/cca.h"

namespace ccas {

namespace {

[[noreturn]] void bad(const std::string& what) {
  throw std::invalid_argument(what);
}

}  // namespace

void SizeDist::validate() const {
  if (min_segments == 0) bad("workload size: min_segments must be >= 1");
  if (max_segments < min_segments) {
    bad("workload size: max_segments < min_segments");
  }
  switch (kind) {
    case SizeDistKind::kPareto:
      if (!(pareto_alpha > 0.0) || !std::isfinite(pareto_alpha)) {
        bad("workload size: pareto alpha must be > 0");
      }
      break;
    case SizeDistKind::kLognormal:
      if (!std::isfinite(lognormal_mu)) bad("workload size: lognormal mu must be finite");
      if (!(lognormal_sigma > 0.0) || !std::isfinite(lognormal_sigma)) {
        bad("workload size: lognormal sigma must be > 0");
      }
      break;
    case SizeDistKind::kFixed:
      if (fixed_segments == 0) bad("workload size: fixed size must be >= 1");
      break;
    case SizeDistKind::kEmpirical: {
      if (empirical.empty()) bad("workload size: empirical CDF has no points");
      double prev_prob = 0.0;
      uint64_t prev_seg = 0;
      for (const EmpiricalPoint& p : empirical) {
        if (!(p.cum_prob > prev_prob) || p.cum_prob > 1.0) {
          bad("workload size: empirical CDF probabilities must be strictly "
              "increasing in (0, 1]");
        }
        if (p.segments == 0 || p.segments < prev_seg) {
          bad("workload size: empirical CDF sizes must be >= 1 and "
              "non-decreasing");
        }
        prev_prob = p.cum_prob;
        prev_seg = p.segments;
      }
      if (empirical.back().cum_prob != 1.0) {
        bad("workload size: empirical CDF must end at cum_prob 1.0");
      }
      break;
    }
  }
}

uint64_t SizeDist::sample(Rng& rng) const {
  switch (kind) {
    case SizeDistKind::kPareto: {
      // Bounded-Pareto inverse CDF.
      const double a = pareto_alpha;
      const auto lo = static_cast<double>(min_segments);
      const auto hi = static_cast<double>(max_segments);
      const double u = rng.next_double();
      const double x = std::pow(
          -(u * std::pow(hi, a) - u * std::pow(lo, a) - std::pow(hi, a)) /
              (std::pow(hi, a) * std::pow(lo, a)),
          -1.0 / a);
      return static_cast<uint64_t>(std::clamp(x, lo, hi));
    }
    case SizeDistKind::kLognormal: {
      // Irwin–Hall normal approximation (sum of 12 uniforms minus 6), the
      // same libm-free standard-normal the impairment jitter stage uses,
      // so samples are bit-identical across platforms.
      double z = -6.0;
      for (int i = 0; i < 12; ++i) z += rng.next_double();
      const double x = std::exp(lognormal_mu + lognormal_sigma * z);
      const auto lo = static_cast<double>(min_segments);
      const auto hi = static_cast<double>(max_segments);
      return static_cast<uint64_t>(std::clamp(x, lo, hi));
    }
    case SizeDistKind::kFixed:
      return fixed_segments;
    case SizeDistKind::kEmpirical: {
      const double u = rng.next_double();
      const auto it = std::upper_bound(
          empirical.begin(), empirical.end(), u,
          [](double a, const EmpiricalPoint& p) { return a < p.cum_prob; });
      return it == empirical.end() ? empirical.back().segments : it->segments;
    }
  }
  return min_segments;  // unreachable
}

double SizeDist::analytic_mean_segments() const {
  switch (kind) {
    case SizeDistKind::kPareto: {
      const double a = pareto_alpha;
      const auto lo = static_cast<double>(min_segments);
      const auto hi = static_cast<double>(max_segments);
      if (std::abs(a - 1.0) < 1e-9) {
        return lo / (1.0 - lo / hi) * std::log(hi / lo);
      }
      const double norm = std::pow(lo, a) / (1.0 - std::pow(lo / hi, a));
      return norm * (a / (a - 1.0)) *
             (std::pow(lo, 1.0 - a) - std::pow(hi, 1.0 - a));
    }
    case SizeDistKind::kLognormal:
      return std::exp(lognormal_mu +
                      lognormal_sigma * lognormal_sigma / 2.0);
    case SizeDistKind::kFixed:
      return static_cast<double>(fixed_segments);
    case SizeDistKind::kEmpirical: {
      double mean = 0.0;
      double prev = 0.0;
      for (const EmpiricalPoint& p : empirical) {
        mean += (p.cum_prob - prev) * static_cast<double>(p.segments);
        prev = p.cum_prob;
      }
      return mean;
    }
  }
  return 0.0;  // unreachable
}

void WorkloadClass::validate() const {
  if (name.empty()) bad("workload class: empty name");
  if (!(weight > 0.0) || !std::isfinite(weight)) {
    bad("workload class '" + name + "': weight must be > 0");
  }
  if (rtt <= TimeDelta::zero()) {
    bad("workload class '" + name + "': non-positive RTT");
  }
  (void)cca_row(cca);  // throws for unknown names
  size.validate();
  if (app != AppModel::kBulk) {
    if (app_burst_segments == 0) {
      bad("workload class '" + name + "': app model needs burst >= 1 segment");
    }
    if (app_gap < TimeDelta::zero()) {
      bad("workload class '" + name + "': negative app gap");
    }
    if (app == AppModel::kVideoChunk && app_gap <= TimeDelta::zero()) {
      bad("workload class '" + name + "': video chunk interval must be > 0");
    }
  }
}

void WorkloadSpec::validate() const {
  if (arrivals_per_sec < 0.0 || !std::isfinite(arrivals_per_sec)) {
    bad("workload: negative arrival rate");
  }
  if (arrivals_per_sec > 0.0 && classes.empty()) {
    bad("workload: an arrival process needs at least one traffic class");
  }
  if (classes.empty()) return;
  double weight_sum = 0.0;
  for (const WorkloadClass& c : classes) {
    c.validate();
    weight_sum += c.weight;
  }
  if (std::abs(weight_sum - 1.0) > 1e-9) {
    bad("workload: class weights must sum to 1");
  }
}

uint64_t derive_workload_seed(uint64_t cell_seed) {
  // SplitMix64 finalizer under a workload-specific salt; see
  // derive_impairment_seed / derive_qdisc_seed for the pattern.
  uint64_t z = cell_seed ^ 0xE7037ED1A0B428DBULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<EmpiricalPoint> parse_empirical_cdf_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) bad("workload: cannot open empirical CDF file: " + path);
  std::vector<EmpiricalPoint> points;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    EmpiricalPoint p;
    if (!(ls >> p.cum_prob)) {
      // Blank (or comment-only) line.
      bool blank = true;
      for (const char c : line) {
        if (!std::isspace(static_cast<unsigned char>(c))) blank = false;
      }
      if (blank) continue;
      bad("workload: empirical CDF parse error at " + path + ":" +
          std::to_string(lineno));
    }
    if (!(ls >> p.segments)) {
      bad("workload: empirical CDF parse error at " + path + ":" +
          std::to_string(lineno));
    }
    std::string trailing;
    if (ls >> trailing) {
      bad("workload: empirical CDF trailing tokens at " + path + ":" +
          std::to_string(lineno));
    }
    points.push_back(p);
  }
  if (points.empty()) {
    bad("workload: empirical CDF file has no points: " + path);
  }
  return points;
}

}  // namespace ccas
