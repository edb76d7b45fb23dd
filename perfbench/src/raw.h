// Output plumbing for the measurement binary: a steady clock, a minimal JSON
// object writer for the raw measurement record that run.py aggregates, and
// the in-memory span log of traced runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Seconds on the steady clock since the process started.
[[nodiscard]] double now_s();

// Keeps a computed value alive so the optimizer cannot drop the work that
// produced it (the replay loops time library calls whose results are
// otherwise unused).
template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

// Builds one JSON object, key by key. Numbers keep all 17 significant
// digits: the aggregator (metrics.py) decides what to round.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v);
  JsonObject& count(const std::string& key, uint64_t v);
  JsonObject& str(const std::string& key, const std::string& v);
  JsonObject& flag(const std::string& key, bool v);
  JsonObject& nums(const std::string& key, const std::vector<double>& v);
  // `json` must already be a serialized JSON value.
  JsonObject& raw(const std::string& key, const std::string& json);
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

[[nodiscard]] std::string json_array(const std::vector<std::string>& items);

// Spans recorded around calls into the library's layers. Disabled in
// untraced runs, where open() returns -1 and nothing is stored. Spans stay
// in memory and are written out once, when the run ends.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  int open(const std::string& name);
  void close(int id);
  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] size_t size() const { return spans_.size(); }

 private:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
  };
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name) : log_(log), id_(log.open(name)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

}  // namespace perfbench
