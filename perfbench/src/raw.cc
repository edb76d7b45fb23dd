#include "raw.h"

#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

const auto kStart = std::chrono::steady_clock::now();

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - kStart)
      .count();
}

void JsonObject::key(const std::string& k) {
  if (!body_.empty()) body_ += ", ";
  body_ += quote(k) + ": ";
}

JsonObject& JsonObject::num(const std::string& k, double v) {
  key(k);
  body_ += number(v);
  return *this;
}

JsonObject& JsonObject::count(const std::string& k, uint64_t v) {
  key(k);
  body_ += std::to_string(v);
  return *this;
}

JsonObject& JsonObject::str(const std::string& k, const std::string& v) {
  key(k);
  body_ += quote(v);
  return *this;
}

JsonObject& JsonObject::flag(const std::string& k, bool v) {
  key(k);
  body_ += v ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::nums(const std::string& k, const std::vector<double>& v) {
  std::vector<std::string> items;
  items.reserve(v.size());
  for (const double x : v) items.push_back(number(x));
  return raw(k, json_array(items));
}

JsonObject& JsonObject::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += items[i];
  }
  return out + "]";
}

int SpanLog::open(const std::string& name) {
  if (!enabled_) return -1;
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(Span{name, now_s(), 0.0, parent});
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_s = now_s();
  // Spans close in LIFO order (ScopedSpan); pop through to `id` anyway so
  // an exception unwinding several scopes leaves the stack consistent.
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    if (top == id) break;
  }
}

std::string SpanLog::to_json() const {
  std::vector<std::string> items;
  items.reserve(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    items.push_back(JsonObject()
                        .count("id", i)
                        .num("parent", s.parent)
                        .str("name", s.name)
                        .num("start_s", s.start_s)
                        .num("end_s", s.end_s)
                        .str());
  }
  return json_array(items);
}

}  // namespace perfbench
