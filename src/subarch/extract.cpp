#include "subarch/extract.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <numeric>
#include <utility>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "util/sync.h"

namespace olsq2::subarch {

namespace {

std::uint64_t hash64(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

/// Structural fingerprint of a device (cover-cache key component). Covers
/// depend only on the coupling graph, never on the name, but the name is
/// included to keep debugging dumps readable.
std::string device_fingerprint(const device::Device& dev) {
  std::uint64_t h = 1469598103934665603ull;
  for (const device::Edge& e : dev.edges()) {
    h = hash64(h, static_cast<std::uint64_t>(e.p0) << 32 |
                      static_cast<std::uint64_t>(e.p1));
  }
  return dev.name() + "#" + std::to_string(dev.num_qubits()) + "#" +
         std::to_string(dev.num_edges()) + "#" + std::to_string(h);
}

struct UnionFind {
  std::vector<int> parent;
  explicit UnionFind(int n) : parent(n) {
    std::iota(parent.begin(), parent.end(), 0);
  }
  int find(int x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  }
  void unite(int a, int b) { parent[find(a)] = find(b); }
};

bool connected_on(int n, const std::vector<std::pair<int, int>>& edges) {
  if (n <= 1) return true;
  UnionFind uf(n);
  for (const auto& [a, b] : edges) uf.unite(a, b);
  const int root = uf.find(0);
  for (int v = 1; v < n; ++v) {
    if (uf.find(v) != root) return false;
  }
  return true;
}

/// The --inject-subarch-bug fault: a deliberately broken extractor that
/// "forgets" one coupler of every cyclic subgraph it emits. Solutions on
/// the impoverished subdevice still lift to valid full-device solutions,
/// but the reported optimum inflates whenever the dropped edge mattered -
/// exactly the lift-soundness violation fuzz::check_subarch must flag.
// NOLINTNEXTLINE(concurrency-mt-unsafe) - test-only, set before fuzzing.
bool inject_edge_drop_bug() {
  return std::getenv("OLSQ2_FUZZ_INJECT_SUBARCH_BUG") != nullptr;
}

/// Drop the last induced edge whose removal keeps the subgraph connected
/// (trees are left alone; disconnecting would break the SubDevice
/// invariant rather than model a plausible extractor bug).
void maybe_drop_edge(std::vector<std::pair<int, int>>& edges, int m) {
  if (static_cast<int>(edges.size()) < m) return;  // tree: every edge is a bridge
  for (int i = static_cast<int>(edges.size()) - 1; i >= 0; --i) {
    std::vector<std::pair<int, int>> trimmed = edges;
    trimmed.erase(trimmed.begin() + i);
    if (connected_on(m, trimmed)) {
      edges = std::move(trimmed);
      return;
    }
  }
}

/// Induced edge list of a sorted vertex set, in sub-index space.
std::vector<std::pair<int, int>> induced_edges(
    const device::Device& dev, const std::vector<int>& verts) {
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < static_cast<int>(verts.size()); ++i) {
    for (int j = i + 1; j < static_cast<int>(verts.size()); ++j) {
      if (dev.adjacent(verts[i], verts[j])) edges.emplace_back(i, j);
    }
  }
  return edges;
}

device::Device build_sub(const std::vector<std::pair<int, int>>& edges,
                         int m) {
  std::vector<device::Edge> dev_edges;
  dev_edges.reserve(edges.size());
  for (const auto& [a, b] : edges) dev_edges.push_back({a, b});
  return device::Device("sub", m, std::move(dev_edges));
}

/// ESU (Wernicke) enumeration of connected induced m-vertex subgraphs:
/// every set is emitted exactly once, rooted at its minimum vertex.
class Esu {
 public:
  Esu(const device::Device& dev, int m, std::int64_t budget)
      : dev_(dev), m_(m), budget_(budget), seen_(dev.num_qubits(), 0) {}

  template <typename Emit>
  bool run(Emit&& emit) {
    for (int v = 0; v < dev_.num_qubits() && !aborted_; ++v) {
      root_ = v;
      sub_ = {v};
      seen_[v] = 1;
      std::vector<int> ext;
      for (const int u : dev_.neighbors(v)) {
        if (u > v) {
          ext.push_back(u);
          seen_[u] = 1;
        }
      }
      extend(ext, emit);
      for (const int u : ext) seen_[u] = 0;
      seen_[v] = 0;
    }
    return !aborted_;
  }

  std::int64_t enumerated() const { return enumerated_; }

 private:
  template <typename Emit>
  void extend(std::vector<int> ext, Emit&& emit) {
    if (aborted_) return;
    if (static_cast<int>(sub_.size()) == m_) {
      ++enumerated_;
      if (enumerated_ > budget_) {
        aborted_ = true;
        return;
      }
      emit(sub_);
      return;
    }
    while (!ext.empty() && !aborted_) {
      const int w = ext.back();
      ext.pop_back();
      // Extension of the child: remaining ext plus w's exclusive
      // neighbors (unseen, above the root). `seen_` marks sub ∪ N(sub) ∪
      // ext, so each vertex enters at most one extension list per branch.
      std::vector<int> child_ext = ext;
      std::vector<int> newly_seen;
      for (const int u : dev_.neighbors(w)) {
        if (u > root_ && !seen_[u]) {
          child_ext.push_back(u);
          seen_[u] = 1;
          newly_seen.push_back(u);
        }
      }
      sub_.push_back(w);
      extend(std::move(child_ext), emit);
      sub_.pop_back();
      for (const int u : newly_seen) seen_[u] = 0;
    }
  }

  const device::Device& dev_;
  int m_;
  std::int64_t budget_;
  std::vector<char> seen_;
  std::vector<int> sub_;
  int root_ = 0;
  std::int64_t enumerated_ = 0;
  bool aborted_ = false;
};

Cover enumerate_uncached(const device::Device& dev, int m,
                         const ExtractOptions& options) {
  Cover cover;
  cover.size = m;
  if (m < 1 || m > dev.num_qubits() || m > options.max_sub_qubits) {
    return cover;  // complete=false: caller falls back
  }

  // Two-level dedupe. Lattice devices produce thousands of *translated*
  // copies of each shape whose relabeled edge lists are literally equal;
  // those collapse on the cheap signature without touching the
  // canonicalizer. Only one representative per signature pays for WL +
  // individualization, and signatures merge into classes by canonical key.
  std::map<std::string, std::size_t> by_signature;  // sig -> class index
  std::map<std::string, std::size_t> by_key;        // canon key -> index
  bool all_exact = true;

  Esu esu(dev, m, options.max_subgraphs);
  const bool finished = esu.run([&](const std::vector<int>& verts_in) {
    std::vector<int> verts = verts_in;
    std::sort(verts.begin(), verts.end());
    std::vector<std::pair<int, int>> edges = induced_edges(dev, verts);
    if (inject_edge_drop_bug()) maybe_drop_edge(edges, m);
    std::string sig;
    sig.reserve(edges.size() * 2);
    for (const auto& [a, b] : edges) {
      sig.push_back(static_cast<char>('0' + a));
      sig.push_back(static_cast<char>('0' + b));
    }
    if (const auto it = by_signature.find(sig); it != by_signature.end()) {
      ++cover.classes[it->second].members;
      return;
    }
    device::Device sub = build_sub(edges, m);
    serve::DeviceCanon canon = serve::canonicalize_device(sub);
    all_exact = all_exact && canon.exact;
    if (const auto it = by_key.find(canon.key); it != by_key.end()) {
      by_signature.emplace(std::move(sig), it->second);
      ++cover.classes[it->second].members;
      return;
    }
    CoverClass cls;
    cls.rep.device = std::move(sub);
    cls.rep.to_full = verts;
    cls.canon = std::move(canon);
    cls.members = 1;
    cls.induced_edges = static_cast<int>(edges.size());
    by_key.emplace(cls.canon.key, cover.classes.size());
    by_signature.emplace(std::move(sig), cover.classes.size());
    cover.classes.push_back(std::move(cls));
  });

  cover.enumerated = esu.enumerated();
  cover.complete = finished && all_exact;

  // Densest-first pruning order: a SAT embedding ends the ladder round,
  // and denser classes host more solutions, so trying them first prunes
  // the most probes - while UNSAT rounds still visit every class, which
  // is what makes the cover optimality-preserving (§14.2).
  std::stable_sort(cover.classes.begin(), cover.classes.end(),
                   [](const CoverClass& a, const CoverClass& b) {
                     if (a.induced_edges != b.induced_edges) {
                       return a.induced_edges > b.induced_edges;
                     }
                     if (a.members != b.members) return a.members > b.members;
                     return a.canon.key < b.canon.key;
                   });
  return cover;
}

struct CoverCache {
  sync::Mutex mutex{"subarch.cover"};
  std::map<std::string, Cover> covers OLSQ2_GUARDED_BY(mutex);
};

CoverCache& cover_cache() {
  static CoverCache* cache = new CoverCache();
  return *cache;
}

}  // namespace

Cover enumerate_cover(const device::Device& dev, int m,
                      const ExtractOptions& options) {
  obs::Span span("subarch.extract");
  const std::string key =
      device_fingerprint(dev) + ":" + std::to_string(m) + ":" +
      std::to_string(options.max_subgraphs) + ":" +
      std::to_string(options.max_sub_qubits) +
      (inject_edge_drop_bug() ? ":bugged" : "");
  CoverCache& cache = cover_cache();
  {
    sync::MutexLock lock(cache.mutex);
    if (const auto it = cache.covers.find(key); it != cache.covers.end()) {
      if (obs::metrics::enabled()) {
        obs::metrics::Registry::instance()
            .counter("subarch_cover_cache_hits_total",
                     "Cover enumerations answered from the process cache")
            .inc();
      }
      if (span.live()) {
        span.arg("m", m);
        span.arg("cached", true);
      }
      return it->second;
    }
  }
  Cover cover = enumerate_uncached(dev, m, options);
  if (span.live()) {
    span.arg("m", m);
    span.arg("cached", false);
    span.arg("sets", cover.enumerated);
    span.arg("classes", static_cast<std::int64_t>(cover.classes.size()));
    span.arg("complete", cover.complete);
  }
  sync::MutexLock lock(cache.mutex);
  return cache.covers.emplace(key, std::move(cover)).first->second;
}

bool interaction_connected(const circuit::Circuit& circuit) {
  UnionFind uf(circuit.num_qubits());
  std::vector<char> interacts(circuit.num_qubits(), 0);
  int two_qubit = 0;
  for (const circuit::Gate& g : circuit.gates()) {
    if (!g.is_two_qubit()) continue;
    ++two_qubit;
    interacts[g.q0] = 1;
    interacts[g.q1] = 1;
    uf.unite(g.q0, g.q1);
  }
  if (two_qubit == 0) return false;
  int root = -1;
  for (int q = 0; q < circuit.num_qubits(); ++q) {
    if (!interacts[q]) continue;
    if (root < 0) {
      root = uf.find(q);
    } else if (uf.find(q) != root) {
      return false;
    }
  }
  return true;
}

SubDevice make_subdevice(const device::Device& dev,
                         std::vector<int> vertices) {
  std::sort(vertices.begin(), vertices.end());
  const int m = static_cast<int>(vertices.size());
  SubDevice sd{build_sub(induced_edges(dev, vertices), m),
               std::move(vertices)};
  return sd;
}

}  // namespace olsq2::subarch
