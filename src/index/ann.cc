#include "index/ann.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <istream>
#include <iterator>
#include <ostream>
#include <queue>
#include <type_traits>

#include "common/check.h"
#include "common/hash.h"
#include "tensor/simd.h"

namespace telekit {
namespace index {
namespace {

/// Total order on hits: higher score first, then smaller id. Every beam,
/// sort, and shrink below uses this, which is what makes construction and
/// search deterministic for a fixed corpus + seed.
inline bool Better(const SearchResult& a, const SearchResult& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.id < b.id;
}

/// Max-heap comparator: top() is the best candidate.
struct WorseThan {
  bool operator()(const SearchResult& a, const SearchResult& b) const {
    return Better(b, a);
  }
};

/// Min-heap comparator: top() is the worst kept result.
struct BetterThan {
  bool operator()(const SearchResult& a, const SearchResult& b) const {
    return Better(a, b);
  }
};

constexpr uint64_t kSnapshotMagic = 0x54454C4B49445831ULL;  // "TELKIDX1"
constexpr uint32_t kSnapshotVersion = 1;
constexpr int kMaxLevelCap = 32;

/// Append-only binary writer used by Save (payload is checksummed whole).
struct PayloadWriter {
  std::string buf;
  template <typename T>
  void Put(T v) {
    static_assert(std::is_trivially_copyable<T>::value, "raw write");
    buf.append(reinterpret_cast<const char*>(&v), sizeof(T));
  }
  void PutBytes(const void* p, size_t n) {
    buf.append(reinterpret_cast<const char*>(p), n);
  }
};

/// Bounds-checked binary reader used by Load.
struct PayloadReader {
  const char* p;
  size_t n;
  size_t pos = 0;
  template <typename T>
  bool Get(T* out) {
    if (pos + sizeof(T) > n) return false;
    std::memcpy(out, p + pos, sizeof(T));
    pos += sizeof(T);
    return true;
  }
  bool GetBytes(void* out, size_t bytes) {
    if (pos + bytes > n) return false;
    std::memcpy(out, p + pos, bytes);
    pos += bytes;
    return true;
  }
};

}  // namespace

void NormalizeVector(float* v, int dim) {
  float norm_sq = tensor::simd::Dot(v, v, dim);
  if (norm_sq <= 0.0f) return;
  tensor::simd::ScaleTo(v, 1.0f / std::sqrt(norm_sq), v, dim);
}

// --- FlatIndex ---------------------------------------------------------------

FlatIndex::FlatIndex(int dim) : dim_(dim) {
  TELEKIT_CHECK(dim > 0) << "FlatIndex dim must be positive, got " << dim;
}

int FlatIndex::Add(const std::vector<float>& v) {
  TELEKIT_CHECK(static_cast<int>(v.size()) == dim_)
      << "FlatIndex::Add dim mismatch: " << v.size() << " vs " << dim_;
  size_t offset = data_.size();
  data_.insert(data_.end(), v.begin(), v.end());
  NormalizeVector(data_.data() + offset, dim_);
  return static_cast<int>(count_++);
}

const float* FlatIndex::vector(int id) const {
  TELEKIT_CHECK(id >= 0 && static_cast<size_t>(id) < count_)
      << "FlatIndex::vector id out of range: " << id;
  return data_.data() + static_cast<size_t>(id) * dim_;
}

std::vector<SearchResult> FlatIndex::Search(const float* query, int k) const {
  if (count_ == 0) return {};
  std::vector<float> q(query, query + dim_);
  NormalizeVector(q.data(), dim_);
  std::vector<SearchResult> hits(count_);
  for (size_t i = 0; i < count_; ++i) {
    hits[i].id = static_cast<int>(i);
    hits[i].score = tensor::simd::Dot(q.data(), data_.data() + i * dim_, dim_);
  }
  size_t kept = (k <= 0 || static_cast<size_t>(k) > count_)
                    ? count_
                    : static_cast<size_t>(k);
  std::partial_sort(hits.begin(), hits.begin() + kept, hits.end(), Better);
  hits.resize(kept);
  return hits;
}

// --- HnswIndex ---------------------------------------------------------------

HnswIndex::HnswIndex(int dim, const HnswOptions& options)
    : dim_(dim),
      options_(options),
      max_links0_(2 * options.M),
      level_mult_(1.0 / std::log(static_cast<double>(options.M))),
      level_rng_(options.seed) {
  TELEKIT_CHECK(dim > 0) << "HnswIndex dim must be positive, got " << dim;
  TELEKIT_CHECK(options.M >= 2) << "HnswIndex M must be >= 2, got " << options.M;
  TELEKIT_CHECK(options.ef_construction >= 1)
      << "HnswIndex ef_construction must be >= 1";
}

const float* HnswIndex::vector(int id) const {
  TELEKIT_CHECK(id >= 0 && static_cast<size_t>(id) < count_)
      << "HnswIndex::vector id out of range: " << id;
  return data_.data() + static_cast<size_t>(id) * dim_;
}

float HnswIndex::Score(const float* query, int id) const {
  return tensor::simd::Dot(query, Vector(id), dim_);
}

int HnswIndex::RandomLevel() {
  double u = level_rng_.Uniform();
  if (u < 1e-12) u = 1e-12;
  int level = static_cast<int>(-std::log(u) * level_mult_);
  return std::min(level, kMaxLevelCap);
}

const std::vector<int>& HnswIndex::Links(int id, int level) const {
  return links_[id][level];
}

std::vector<SearchResult> HnswIndex::SearchLayer(const float* query, int entry,
                                                 int ef, int level) const {
  std::vector<uint8_t> visited(count_, 0);
  std::priority_queue<SearchResult, std::vector<SearchResult>, WorseThan>
      candidates;
  std::priority_queue<SearchResult, std::vector<SearchResult>, BetterThan>
      results;
  SearchResult first{entry, Score(query, entry)};
  visited[entry] = 1;
  candidates.push(first);
  results.push(first);
  while (!candidates.empty()) {
    SearchResult c = candidates.top();
    candidates.pop();
    if (results.size() >= static_cast<size_t>(ef) &&
        Better(results.top(), c)) {
      break;  // best open candidate is worse than the worst kept result
    }
    for (int n : Links(c.id, level)) {
      if (visited[n]) continue;
      visited[n] = 1;
      SearchResult hit{n, Score(query, n)};
      if (results.size() < static_cast<size_t>(ef) ||
          Better(hit, results.top())) {
        candidates.push(hit);
        results.push(hit);
        if (results.size() > static_cast<size_t>(ef)) results.pop();
      }
    }
  }
  std::vector<SearchResult> out(results.size());
  for (size_t i = results.size(); i-- > 0;) {
    out[i] = results.top();
    results.pop();
  }
  return out;  // best-first
}

std::vector<int> HnswIndex::SelectNeighbors(
    const std::vector<SearchResult>& cands, int max_links) const {
  std::vector<int> selected;
  std::vector<int> discarded;
  selected.reserve(max_links);
  for (const SearchResult& c : cands) {
    if (static_cast<int>(selected.size()) >= max_links) break;
    const float* cv = Vector(c.id);
    bool diverse = true;
    for (int r : selected) {
      // Closer to an already-kept neighbour than to the base: redundant —
      // the kept neighbour covers this direction.
      if (tensor::simd::Dot(cv, Vector(r), dim_) > c.score) {
        diverse = false;
        break;
      }
    }
    (diverse ? selected : discarded).push_back(c.id);
  }
  for (int id : discarded) {
    if (static_cast<int>(selected.size()) >= max_links) break;
    selected.push_back(id);
  }
  return selected;
}

int HnswIndex::Add(const std::vector<float>& v) {
  TELEKIT_CHECK(static_cast<int>(v.size()) == dim_)
      << "HnswIndex::Add dim mismatch: " << v.size() << " vs " << dim_;
  int id = static_cast<int>(count_);
  size_t offset = data_.size();
  data_.insert(data_.end(), v.begin(), v.end());
  NormalizeVector(data_.data() + offset, dim_);
  ++count_;
  int level = RandomLevel();
  levels_.push_back(level);
  links_.emplace_back(level + 1);
  if (id == 0) {
    entry_ = 0;
    max_level_ = level;
    return id;
  }
  const float* vec = Vector(id);
  int ep = entry_;
  // Greedy descent through layers above the new node's top level.
  for (int lc = max_level_; lc > level; --lc) {
    ep = SearchLayer(vec, ep, 1, lc)[0].id;
  }
  // Beam insert on every shared layer, top to bottom.
  for (int lc = std::min(level, max_level_); lc >= 0; --lc) {
    std::vector<SearchResult> cands =
        SearchLayer(vec, ep, options_.ef_construction, lc);
    int max_links = (lc == 0) ? max_links0_ : options_.M;
    links_[id][lc] = SelectNeighbors(cands, options_.M);
    for (int n : links_[id][lc]) {
      std::vector<int>& back = links_[n][lc];
      back.push_back(id);
      if (back.size() > static_cast<size_t>(max_links)) {
        // Re-select n's neighbours with the same diversity heuristic.
        const float* nv = Vector(n);
        std::vector<SearchResult> scored(back.size());
        for (size_t j = 0; j < back.size(); ++j) {
          scored[j] = {back[j], Score(nv, back[j])};
        }
        std::sort(scored.begin(), scored.end(), Better);
        back = SelectNeighbors(scored, max_links);
      }
    }
    ep = cands[0].id;
  }
  if (level > max_level_) {
    max_level_ = level;
    entry_ = id;
  }
  return id;
}

std::vector<SearchResult> HnswIndex::Search(const float* query, int k,
                                            int ef_search) const {
  if (count_ == 0 || k == 0) return {};
  std::vector<float> q(query, query + dim_);
  NormalizeVector(q.data(), dim_);
  int ef = ef_search > 0 ? ef_search : options_.ef_search;
  if (k > 0 && ef < k) ef = k;
  int ep = entry_;
  for (int lc = max_level_; lc > 0; --lc) {
    ep = SearchLayer(q.data(), ep, 1, lc)[0].id;
  }
  std::vector<SearchResult> hits = SearchLayer(q.data(), ep, ef, 0);
  if (k > 0 && hits.size() > static_cast<size_t>(k)) hits.resize(k);
  return hits;
}

uint64_t HnswIndex::GraphDigest() const {
  PayloadWriter w;
  w.Put<uint32_t>(static_cast<uint32_t>(dim_));
  w.Put<uint64_t>(count_);
  w.Put<int32_t>(max_level_);
  w.Put<int64_t>(entry_);
  for (size_t i = 0; i < count_; ++i) {
    w.Put<uint32_t>(static_cast<uint32_t>(levels_[i]));
    for (int lc = 0; lc <= levels_[i]; ++lc) {
      const std::vector<int>& l = links_[i][lc];
      w.Put<uint32_t>(static_cast<uint32_t>(l.size()));
      for (int id : l) w.Put<uint32_t>(static_cast<uint32_t>(id));
    }
  }
  w.PutBytes(data_.data(), data_.size() * sizeof(float));
  return Fnv1a(w.buf.data(), w.buf.size());
}

Status HnswIndex::Save(std::ostream& out, uint64_t fingerprint) const {
  PayloadWriter w;
  w.Put<uint32_t>(kSnapshotVersion);
  w.Put<uint32_t>(static_cast<uint32_t>(dim_));
  w.Put<uint64_t>(count_);
  w.Put<uint32_t>(static_cast<uint32_t>(options_.M));
  w.Put<uint32_t>(static_cast<uint32_t>(options_.ef_construction));
  w.Put<uint32_t>(static_cast<uint32_t>(options_.ef_search));
  w.Put<uint64_t>(options_.seed);
  w.Put<int32_t>(max_level_);
  w.Put<int64_t>(entry_);
  w.Put<uint64_t>(fingerprint);
  for (size_t i = 0; i < count_; ++i) {
    w.Put<uint32_t>(static_cast<uint32_t>(levels_[i]));
    for (int lc = 0; lc <= levels_[i]; ++lc) {
      const std::vector<int>& l = links_[i][lc];
      w.Put<uint32_t>(static_cast<uint32_t>(l.size()));
      for (int id : l) w.Put<uint32_t>(static_cast<uint32_t>(id));
    }
  }
  w.PutBytes(data_.data(), data_.size() * sizeof(float));
  uint64_t checksum = Fnv1a(w.buf.data(), w.buf.size());
  out.write(reinterpret_cast<const char*>(&kSnapshotMagic),
            sizeof(kSnapshotMagic));
  out.write(w.buf.data(), static_cast<std::streamsize>(w.buf.size()));
  out.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  if (!out.good()) return Status::Internal("index snapshot write failed");
  return Status::Ok();
}

StatusOr<std::unique_ptr<HnswIndex>> HnswIndex::Load(std::istream& in,
                                                     uint64_t fingerprint) {
  uint64_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  if (in.gcount() != sizeof(magic) || magic != kSnapshotMagic) {
    return Status::InvalidArgument("index snapshot: bad magic");
  }
  std::string rest((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (rest.size() < sizeof(uint64_t)) {
    return Status::InvalidArgument("index snapshot: truncated (no checksum)");
  }
  size_t payload_size = rest.size() - sizeof(uint64_t);
  uint64_t stored_checksum = 0;
  std::memcpy(&stored_checksum, rest.data() + payload_size, sizeof(uint64_t));
  if (Fnv1a(rest.data(), payload_size) != stored_checksum) {
    return Status::InvalidArgument(
        "index snapshot: checksum mismatch (truncated or corrupted)");
  }
  PayloadReader r{rest.data(), payload_size};
  uint32_t version = 0, dim = 0, m = 0, efc = 0, efs = 0;
  uint64_t count = 0, seed = 0, stored_fingerprint = 0;
  int32_t max_level = 0;
  int64_t entry = 0;
  if (!r.Get(&version) || !r.Get(&dim) || !r.Get(&count) || !r.Get(&m) ||
      !r.Get(&efc) || !r.Get(&efs) || !r.Get(&seed) || !r.Get(&max_level) ||
      !r.Get(&entry) || !r.Get(&stored_fingerprint)) {
    return Status::InvalidArgument("index snapshot: truncated header");
  }
  if (version != kSnapshotVersion) {
    return Status::InvalidArgument("index snapshot: unsupported version " +
                                   std::to_string(version));
  }
  if (dim == 0 || dim > 65536 || m < 2 || m > 4096 || efc == 0 ||
      count > (1ULL << 31) || max_level < -1 || max_level > kMaxLevelCap) {
    return Status::InvalidArgument("index snapshot: implausible header");
  }
  if (stored_fingerprint != fingerprint) {
    return Status::FailedPrecondition(
        "index snapshot: fingerprint mismatch (stale corpus or model)");
  }
  HnswOptions options;
  options.M = static_cast<int>(m);
  options.ef_construction = static_cast<int>(efc);
  options.ef_search = static_cast<int>(efs);
  options.seed = seed;
  auto idx = std::make_unique<HnswIndex>(static_cast<int>(dim), options);
  idx->count_ = count;
  idx->max_level_ = max_level;
  idx->entry_ = static_cast<int>(entry);
  if (count > 0 &&
      (entry < 0 || entry >= static_cast<int64_t>(count))) {
    return Status::InvalidArgument("index snapshot: entry out of range");
  }
  idx->levels_.resize(count);
  idx->links_.resize(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t level = 0;
    if (!r.Get(&level)) {
      return Status::InvalidArgument("index snapshot: truncated levels");
    }
    if (level > static_cast<uint32_t>(kMaxLevelCap)) {
      return Status::InvalidArgument("index snapshot: implausible level");
    }
    idx->levels_[i] = static_cast<int>(level);
    idx->links_[i].resize(level + 1);
    for (uint32_t lc = 0; lc <= level; ++lc) {
      uint32_t n = 0;
      if (!r.Get(&n) || n > count) {
        return Status::InvalidArgument("index snapshot: truncated adjacency");
      }
      std::vector<int>& l = idx->links_[i][lc];
      l.resize(n);
      for (uint32_t j = 0; j < n; ++j) {
        uint32_t id = 0;
        if (!r.Get(&id) || id >= count) {
          return Status::InvalidArgument("index snapshot: link id out of range");
        }
        l[j] = static_cast<int>(id);
      }
    }
  }
  idx->data_.resize(static_cast<size_t>(count) * dim);
  if (!r.GetBytes(idx->data_.data(), idx->data_.size() * sizeof(float))) {
    return Status::InvalidArgument("index snapshot: truncated vectors");
  }
  if (r.pos != r.n) {
    return Status::InvalidArgument("index snapshot: trailing garbage");
  }
  return StatusOr<std::unique_ptr<HnswIndex>>(std::move(idx));
}

}  // namespace index
}  // namespace telekit
