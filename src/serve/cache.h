// Two-tier result cache for the serving layer.
//
// Tier 1 is an in-memory LRU over full cache keys; tier 2 (optional) is a
// persistent on-disk store with one JSON file per entry (schema:
// layout/json.h result_to_cache_json plus the key and any optimality
// certificates). Disk hits are promoted into the LRU.
//
// Keys are the *entire* serialized canonical instance plus engine/config
// tags (serve/canonical.h). Filenames are a 64-bit FNV-1a hash of the key,
// but the stored key is always compared byte-for-byte before a file is
// trusted, so a hash collision degrades to a miss (or an overwrite on
// insert), never to a wrong answer. A file that does not parse (a torn
// write, a foreign file) is a counted miss too: it is renamed aside to
// `<name>.corrupt`. Inserts write a temp file and rename it into place.
//
// Results are stored in canonical space; un-relabeling to the requesting
// instance is the caller's job (serve/transfer.h). Unsolved results are
// never inserted - a budget-limited failure is not a fact about the
// instance.
//
// Observability: every lookup/insert runs under an obs span, and the
// hit/miss/byte counters stream through obs::counter as
// "serve.cache.hits" / "serve.cache.misses" / "serve.cache.bytes".
//
// Concurrency: thread-safe. One annotated mutex ("serve.cache") guards
// both tiers - the LRU list/index and the persistent tier's read/write
// paths (disk I/O happens under the lock: entries are small JSON documents,
// and an unlocked disk tier would let two threads interleave a read-parse
// with an overwrite of the same FNV-named file). Lock hierarchy (DESIGN.md
// §11): serve.cache -> obs.trace / obs.metrics.registry.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>

#include "layout/certify.h"
#include "layout/types.h"
#include "util/sync.h"

namespace olsq2::serve {

struct CacheOptions {
  /// In-memory LRU capacity, in entries.
  std::size_t max_entries = 256;
  /// Directory of the persistent tier; empty = memory-only. Created on
  /// first insert.
  std::string disk_dir;
};

struct CacheStats {
  std::uint64_t hits = 0;        // total hits (memory + disk)
  std::uint64_t disk_hits = 0;   // hits served by the persistent tier
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;       // LRU evictions (entry may live on disk)
  std::uint64_t bytes_written = 0;   // persistent-tier writes
  std::uint64_t bytes_read = 0;      // persistent-tier reads (hits only)
  std::uint64_t key_collisions = 0;  // same file hash, different key
  std::uint64_t corrupt = 0;  // unparsable disk entries (counted as misses)
};

/// A cached solve: the canonical-space result plus whatever optimality
/// certificates were computed for it (certificates are expensive; caching
/// them is half the point of serving repeat instances).
struct CacheEntry {
  layout::Result result;
  bool has_depth_cert = false;
  bool has_swap_cert = false;
  layout::Certificate depth_cert;
  layout::Certificate swap_cert;
};

class ResultCache {
 public:
  explicit ResultCache(CacheOptions options = {});

  /// Look `key` up in the LRU, then on disk. A hit refreshes LRU recency
  /// and, when `from_disk` is non-null, reports whether the persistent
  /// tier answered.
  std::optional<CacheEntry> lookup(const std::string& key,
                                   bool* from_disk = nullptr)
      OLSQ2_EXCLUDES(mutex_);

  /// Insert/overwrite. Entries with `!entry.result.solved` are rejected
  /// (returns false) - see the header comment.
  bool insert(const std::string& key, const CacheEntry& entry)
      OLSQ2_EXCLUDES(mutex_);

  /// Consistent snapshot of the counters (by value: the live struct is
  /// lock-guarded).
  CacheStats stats() const OLSQ2_EXCLUDES(mutex_) {
    sync::MutexLock lock(mutex_);
    return stats_;
  }
  std::size_t size() const OLSQ2_EXCLUDES(mutex_) {
    sync::MutexLock lock(mutex_);
    return lru_.size();
  }

  /// Serialize an entry as the on-disk JSON document (exposed for tests).
  static std::string entry_to_json(const std::string& key,
                                   const CacheEntry& entry);
  /// Parse entry_to_json output; returns the stored key through `key_out`.
  static CacheEntry entry_from_json(std::string_view json,
                                    std::string* key_out);

  /// Approximate in-memory footprint of the LRU tier (key + serialized
  /// payload size per entry). Maintained only while the metrics registry is
  /// collecting; feeds the serve_cache_bytes gauge.
  std::size_t memory_bytes() const OLSQ2_EXCLUDES(mutex_) {
    sync::MutexLock lock(mutex_);
    return mem_bytes_;
  }

 private:
  struct Node {
    std::string key;
    CacheEntry entry;
    std::size_t bytes = 0;  // approx footprint (0 when metrics are off)
  };

  std::string path_for(const std::string& key) const;
  void touch(const std::string& key, CacheEntry entry) OLSQ2_REQUIRES(mutex_);

  CacheOptions options_;  // immutable after construction
  mutable sync::Mutex mutex_{"serve.cache"};
  CacheStats stats_ OLSQ2_GUARDED_BY(mutex_);
  /// Most-recent-first node list + index into it.
  std::list<Node> lru_ OLSQ2_GUARDED_BY(mutex_);
  std::unordered_map<std::string, std::list<Node>::iterator> index_
      OLSQ2_GUARDED_BY(mutex_);
  std::size_t mem_bytes_ OLSQ2_GUARDED_BY(mutex_) = 0;
};

/// FNV-1a 64-bit hash (filenames of the persistent tier).
std::uint64_t fnv1a64(std::string_view data);

}  // namespace olsq2::serve
