// On-disk cache of ExperimentResults keyed by the canonical spec hash
// (spec_hash.h). One file per cell under the cache directory:
//
//   <dir>/<16-hex key>.ccres
//
// File layout: 8-byte magic, format version, the key (sanity check), a
// length-prefixed payload (the serialized result), and an FNV-1a checksum
// of the payload. Entries that are truncated, bit-flipped, mis-keyed, or
// from another format version fail to load and are recomputed — a corrupt
// cache can cost time, never correctness. A load is one sized read of the
// file; the header, checksum and payload are then decoded in place.
//
// Writes go to a uniquely named temp file (pid + counter, so concurrent
// worker processes racing the same key never tear each other's temp) in
// the same directory, are fsync'd, and renamed into place; the directory
// is fsync'd after the rename so the committed name survives a host
// crash. Concurrent sweeps sharing a cache directory therefore see only
// complete entries; each write is verified after the rename (read back
// and byte-compared) and retried with a short backoff, so a transient
// write error (ENOSPC window, flaky network FS) costs milliseconds
// instead of leaving a torn entry behind. Results carrying a time-series trace are
// not cached (the trace is unbounded; the executor bypasses the cache
// for traced specs).
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/harness/experiment.h"

namespace ccas::sweep {

// Serialization used by the cache files (exposed for tests).
[[nodiscard]] std::string serialize_result(const ExperimentResult& result);
[[nodiscard]] std::optional<ExperimentResult> deserialize_result(
    std::string_view payload);

class ResultCache {
 public:
  // Creates `dir` (and parents) if missing. Throws std::runtime_error if
  // the directory cannot be created.
  explicit ResultCache(std::string dir);

  // nullopt on miss, corruption, version or key mismatch.
  [[nodiscard]] std::optional<ExperimentResult> load(uint64_t key) const;

  // Best-effort: returns false (without throwing) if the entry could not
  // be written after kStoreAttempts verified tries — a read-only cache
  // dir degrades to cache-off. Each attempt writes a temp file, renames
  // it into place, re-reads the entry and byte-compares it against what
  // was meant to be written; a mismatch removes the bad entry and
  // retries after a short deterministic backoff.
  bool store(uint64_t key, const ExperimentResult& result) const;
  static constexpr int kStoreAttempts = 3;

  // Test-only: make the next `n` store attempts write a truncated entry
  // (simulating a torn write), which verify-after-rename must catch and
  // retry. Thread-safe; counts attempts, not store() calls.
  void inject_write_failures(int n) { fail_next_writes_.store(n); }

  [[nodiscard]] std::string entry_path(uint64_t key) const;
  [[nodiscard]] const std::string& dir() const { return dir_; }

 private:
  // fsync the cache directory so a just-renamed entry's name survives a
  // host crash. Best-effort: failure degrades to cache-off semantics.
  void sync_dir() const;

  std::string dir_;
  mutable std::atomic<int> fail_next_writes_{0};
};

}  // namespace ccas::sweep
