#include "index/corpus_index.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <utility>

#include "common/check.h"
#include "common/hash.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace telekit {
namespace index {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

void ExportGauges(const CorpusIndexStats& stats) {
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetGauge("index/size").Set(static_cast<double>(stats.size));
  reg.GetGauge("index/build_ms").Set(stats.build_ms);
  reg.GetGauge("index/loaded_from_snapshot")
      .Set(stats.loaded_from_snapshot ? 1.0 : 0.0);
  reg.GetGauge("index/ef_search_default")
      .Set(static_cast<double>(stats.ef_search_default));
}

}  // namespace

uint64_t CorpusIndex::ComputeFingerprint(
    const std::vector<synth::RetrievalDoc>& docs, int dim,
    const std::string& model_tag, const HnswOptions& options) {
  uint64_t h = kFnv1aOffset;
  h = Fnv1aU64(static_cast<uint64_t>(dim), h);
  h = Fnv1aStr(model_tag, h);
  h = Fnv1aU64(static_cast<uint64_t>(options.M), h);
  h = Fnv1aU64(static_cast<uint64_t>(options.ef_construction), h);
  h = Fnv1aU64(options.seed, h);
  h = Fnv1aU64(docs.size(), h);
  for (const synth::RetrievalDoc& d : docs) h = Fnv1aStr(d.text, h);
  return h;
}

StatusOr<std::unique_ptr<CorpusIndex>> CorpusIndex::BuildOrLoad(
    std::vector<synth::RetrievalDoc> docs, int dim,
    const std::string& model_tag, const EncodeFn& encode,
    const HnswOptions& options, const std::string& snapshot_path) {
  if (docs.empty()) {
    return Status::InvalidArgument("corpus index: no documents");
  }
  uint64_t fingerprint = ComputeFingerprint(docs, dim, model_tag, options);
  Clock::time_point start = Clock::now();
  auto idx = std::unique_ptr<CorpusIndex>(new CorpusIndex());

  if (!snapshot_path.empty()) {
    std::ifstream in(snapshot_path, std::ios::binary);
    if (in.good()) {
      auto loaded = HnswIndex::Load(in, fingerprint);
      if (loaded.ok() && (*loaded)->dim() == dim &&
          (*loaded)->size() == docs.size()) {
        idx->hnsw_ = std::move(*loaded);
        idx->flat_ = std::make_unique<FlatIndex>(dim);
        for (size_t i = 0; i < docs.size(); ++i) {
          const float* v = idx->hnsw_->vector(static_cast<int>(i));
          idx->flat_->Add(std::vector<float>(v, v + dim));
        }
        idx->stats_.loaded_from_snapshot = true;
        TELEKIT_LOG(INFO) << "index: loaded snapshot"
                          << obs::F("path", snapshot_path)
                          << obs::F("docs", docs.size());
      } else {
        TELEKIT_LOG(WARN)
            << "index: snapshot unusable, rebuilding"
            << obs::F("path", snapshot_path)
            << obs::F("error", loaded.ok() ? "shape mismatch"
                                           : loaded.status().ToString());
      }
    }
  }

  if (!idx->hnsw_) {
    std::vector<std::string> texts;
    texts.reserve(docs.size());
    for (const synth::RetrievalDoc& d : docs) texts.push_back(d.text);
    std::vector<std::vector<float>> embeddings = encode(texts);
    if (embeddings.size() != docs.size()) {
      return Status::Internal("corpus index: encoder returned " +
                              std::to_string(embeddings.size()) +
                              " embeddings for " +
                              std::to_string(docs.size()) + " docs");
    }
    idx->hnsw_ = std::make_unique<HnswIndex>(dim, options);
    idx->flat_ = std::make_unique<FlatIndex>(dim);
    for (const std::vector<float>& e : embeddings) {
      if (static_cast<int>(e.size()) != dim) {
        return Status::Internal("corpus index: embedding dim mismatch");
      }
      idx->hnsw_->Add(e);
      idx->flat_->Add(e);
    }
    if (!snapshot_path.empty()) {
      // Write-then-rename so a crash mid-write never leaves a torn
      // snapshot where the next start expects a valid one.
      std::string tmp = snapshot_path + ".tmp";
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      Status saved = out.good() ? idx->hnsw_->Save(out, fingerprint)
                                : Status::Internal("open failed");
      out.close();
      if (saved.ok() && std::rename(tmp.c_str(), snapshot_path.c_str()) == 0) {
        TELEKIT_LOG(INFO) << "index: wrote snapshot"
                          << obs::F("path", snapshot_path);
      } else {
        std::remove(tmp.c_str());
        TELEKIT_LOG(WARN) << "index: snapshot write failed (serving without)"
                          << obs::F("path", snapshot_path);
      }
    }
  }

  idx->docs_ = std::move(docs);
  idx->stats_.size = idx->docs_.size();
  idx->stats_.dim = dim;
  idx->stats_.build_ms = MsSince(start);
  idx->stats_.M = options.M;
  idx->stats_.ef_construction = options.ef_construction;
  idx->stats_.ef_search_default = options.ef_search;
  idx->stats_.fingerprint = fingerprint;
  idx->stats_.snapshot_path = snapshot_path;
  ExportGauges(idx->stats_);
  return StatusOr<std::unique_ptr<CorpusIndex>>(std::move(idx));
}

std::vector<ScoredDoc> CorpusIndex::Search(const float* query, int k,
                                           int ef_search) const {
  std::vector<SearchResult> hits = hnsw_->Search(query, k, ef_search);
  std::vector<ScoredDoc> out(hits.size());
  for (size_t i = 0; i < hits.size(); ++i) {
    out[i] = {hits[i].id, hits[i].score};
  }
  return out;
}

std::vector<ScoredDoc> CorpusIndex::SearchExact(const float* query,
                                                int k) const {
  std::vector<SearchResult> hits = flat_->Search(query, k);
  std::vector<ScoredDoc> out(hits.size());
  for (size_t i = 0; i < hits.size(); ++i) {
    out[i] = {hits[i].id, hits[i].score};
  }
  return out;
}

const synth::RetrievalDoc& CorpusIndex::doc(int id) const {
  TELEKIT_CHECK(id >= 0 && static_cast<size_t>(id) < docs_.size())
      << "CorpusIndex::doc id out of range: " << id;
  return docs_[id];
}

}  // namespace index
}  // namespace telekit
