#include "serve/cache.h"

#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <sstream>
#include <utility>

#include "layout/json.h"
#include "obs/json_escape.h"
#include "obs/json_scanner.h"
#include "obs/metrics.h"
#include "obs/obs.h"

namespace olsq2::serve {

namespace fs = std::filesystem;

namespace {

std::string certificate_json(const layout::Certificate& c) {
  std::ostringstream out;
  out << "{\"infeasible\":" << (c.infeasible ? "true" : "false")
      << ",\"proof_checked\":" << (c.proof_checked ? "true" : "false")
      << ",\"refutation_complete\":"
      << (c.refutation_complete ? "true" : "false")
      << ",\"proof_steps\":" << c.proof_steps << ",\"wall_ms\":" << c.wall_ms
      << "}";
  return out.str();
}

layout::Certificate certificate_from(obs::JsonScanner& scan) {
  layout::Certificate c;
  scan.expect('{');
  if (!scan.accept('}')) {
    do {
      const std::string key = scan.string_value();
      scan.expect(':');
      if (key == "infeasible") {
        c.infeasible = scan.bool_value();
      } else if (key == "proof_checked") {
        c.proof_checked = scan.bool_value();
      } else if (key == "refutation_complete") {
        c.refutation_complete = scan.bool_value();
      } else if (key == "proof_steps") {
        c.proof_steps = static_cast<std::size_t>(scan.int_value());
      } else if (key == "wall_ms") {
        c.wall_ms = scan.double_value();
      } else {
        scan.skip_value();
      }
    } while (scan.accept(','));
    scan.expect('}');
  }
  return c;
}

/// Move an unparsable entry aside to `<path>.corrupt` (deleted if the
/// rename fails) so it is neither re-read nor in the way of a rewrite.
void quarantine(const std::string& path) {
  std::error_code ec;
  fs::rename(path, path + ".corrupt", ec);
  if (ec) fs::remove(path, ec);
}

/// Registry handles for the cache, registered eagerly (first ResultCache
/// construction while metrics are on) so a scrape sees hit/miss counters at
/// zero before the first request, not absent.
struct CacheMetrics {
  obs::metrics::Counter& hits;
  obs::metrics::Counter& misses;
  obs::metrics::Counter& inserts;
  obs::metrics::Counter& evictions;
  obs::metrics::Counter& disk_read_bytes;
  obs::metrics::Counter& disk_written_bytes;
  obs::metrics::Gauge& memory_bytes;

  static CacheMetrics& get() {
    static CacheMetrics m;
    return m;
  }

 private:
  CacheMetrics()
      : hits(reg().counter("serve_cache_hits_total",
                           "Cache hits (memory + disk tiers)")),
        misses(reg().counter("serve_cache_misses_total", "Cache misses")),
        inserts(reg().counter("serve_cache_inserts_total",
                              "Entries inserted or overwritten")),
        evictions(reg().counter("serve_cache_evictions_total",
                                "In-memory LRU evictions")),
        disk_read_bytes(reg().counter("serve_cache_disk_read_bytes_total",
                                      "Bytes read from the persistent tier")),
        disk_written_bytes(
            reg().counter("serve_cache_disk_written_bytes_total",
                          "Bytes written to the persistent tier")),
        memory_bytes(reg().gauge(
            "serve_cache_bytes",
            "Approximate in-memory footprint of the LRU tier")) {}

  static obs::metrics::Registry& reg() {
    return obs::metrics::Registry::instance();
  }
};

}  // namespace

std::uint64_t fnv1a64(std::string_view data) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

ResultCache::ResultCache(CacheOptions options) : options_(std::move(options)) {
  if (options_.max_entries == 0) options_.max_entries = 1;
  if (obs::metrics::enabled()) CacheMetrics::get();
}

std::string ResultCache::path_for(const std::string& key) const {
  std::ostringstream name;
  name << std::hex << fnv1a64(key);
  return options_.disk_dir + "/" + name.str() + ".json";
}

void ResultCache::touch(const std::string& key, CacheEntry entry) {
  const bool metered = obs::metrics::enabled();
  const auto it = index_.find(key);
  if (it != index_.end()) {
    mem_bytes_ -= it->second->bytes;
    lru_.erase(it->second);
  }
  // Footprint = node bookkeeping + the serialized payload (the honest size
  // of what a scrape-visible byte gauge should report). Measured only while
  // metrics collect, keeping the disabled path allocation-free.
  const std::size_t bytes =
      metered ? sizeof(Node) + key.size() + entry_to_json(key, entry).size()
              : 0;
  lru_.push_front(Node{key, std::move(entry), bytes});
  mem_bytes_ += bytes;
  index_[key] = lru_.begin();
  while (lru_.size() > options_.max_entries) {
    mem_bytes_ -= lru_.back().bytes;
    index_.erase(lru_.back().key);
    lru_.pop_back();
    stats_.evictions++;
    if (metered) CacheMetrics::get().evictions.inc();
  }
  if (metered) {
    CacheMetrics::get().memory_bytes.set(static_cast<double>(mem_bytes_));
  }
}

std::optional<CacheEntry> ResultCache::lookup(const std::string& key,
                                              bool* from_disk) {
  obs::Span span("serve.cache.lookup");
  sync::MutexLock lock(mutex_);
  if (from_disk != nullptr) *from_disk = false;
  const auto it = index_.find(key);
  if (it != index_.end()) {
    CacheEntry entry = it->second->entry;
    touch(key, entry);
    stats_.hits++;
    if (obs::metrics::enabled()) CacheMetrics::get().hits.inc();
    if (span.live()) span.arg("tier", "memory");
    return entry;
  }
  if (!options_.disk_dir.empty()) {
    std::ifstream in(path_for(key));
    if (in) {
      std::stringstream buffer;
      buffer << in.rdbuf();
      const std::string text = buffer.str();
      std::string stored_key;
      std::optional<CacheEntry> entry;
      try {
        entry = entry_from_json(text, &stored_key);
      } catch (const std::runtime_error&) {
        // A torn write or a foreign file: a miss, and out of the way of the
        // insert that will follow it.
        in.close();
        quarantine(path_for(key));
        stats_.corrupt++;
      }
      if (entry && stored_key != key) {
        stats_.key_collisions++;  // byte-for-byte: hash collisions are misses
      } else if (entry) {
        stats_.bytes_read += text.size();
        touch(key, *entry);
        stats_.hits++;
        stats_.disk_hits++;
        if (obs::metrics::enabled()) {
          CacheMetrics::get().hits.inc();
          CacheMetrics::get().disk_read_bytes.inc(text.size());
        }
        if (span.live()) span.arg("tier", "disk");
        if (from_disk != nullptr) *from_disk = true;
        return entry;
      }
    }
  }
  stats_.misses++;
  if (obs::metrics::enabled()) CacheMetrics::get().misses.inc();
  if (span.live()) span.arg("tier", "miss");
  return std::nullopt;
}

bool ResultCache::insert(const std::string& key, const CacheEntry& entry) {
  obs::Span span("serve.cache.insert");
  if (!entry.result.solved) return false;
  sync::MutexLock lock(mutex_);
  touch(key, entry);
  stats_.inserts++;
  if (obs::metrics::enabled()) CacheMetrics::get().inserts.inc();
  if (!options_.disk_dir.empty()) {
    std::error_code ec;
    fs::create_directories(options_.disk_dir, ec);
    const std::string text = entry_to_json(key, entry);
    // Write a temp file and rename it into place, so a crash mid-write can
    // never leave a truncated entry under the real name.
    const std::string path = path_for(key);
    const std::string tmp = path + ".tmp";
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out << text;
    out.close();
    if (!out.fail()) fs::rename(tmp, path, ec);
    if (out.fail() || ec) {
      fs::remove(tmp, ec);
    } else {
      stats_.bytes_written += text.size();
      if (obs::metrics::enabled()) {
        CacheMetrics::get().disk_written_bytes.inc(text.size());
      }
    }
  }
  if (span.live()) span.arg("entries", static_cast<int>(lru_.size()));
  return true;
}

std::string ResultCache::entry_to_json(const std::string& key,
                                       const CacheEntry& entry) {
  std::ostringstream out;
  out << "{\"key\":\"" << obs::json_escape(key) << "\",\"result\":"
      << layout::result_to_cache_json(entry.result);
  if (entry.has_depth_cert) {
    out << ",\"depth_cert\":" << certificate_json(entry.depth_cert);
  }
  if (entry.has_swap_cert) {
    out << ",\"swap_cert\":" << certificate_json(entry.swap_cert);
  }
  out << "}\n";
  return out.str();
}

CacheEntry ResultCache::entry_from_json(std::string_view json,
                                        std::string* key_out) {
  obs::JsonScanner scan(json, "cache entry json");
  CacheEntry entry;
  scan.expect('{');
  if (!scan.accept('}')) {
    do {
      const std::string key = scan.string_value();
      scan.expect(':');
      if (key == "key") {
        *key_out = scan.string_value();
      } else if (key == "result") {
        entry.result = layout::result_from_cache_json(scan.raw_value());
      } else if (key == "depth_cert") {
        entry.depth_cert = certificate_from(scan);
        entry.has_depth_cert = true;
      } else if (key == "swap_cert") {
        entry.swap_cert = certificate_from(scan);
        entry.has_swap_cert = true;
      } else {
        scan.skip_value();
      }
    } while (scan.accept(','));
    scan.expect('}');
  }
  return entry;
}

}  // namespace olsq2::serve
