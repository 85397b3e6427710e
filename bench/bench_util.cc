// Copyright 2026 The SemTree Authors

#include "bench/bench_util.h"

#include <algorithm>
#include <cmath>

#include "nlp/requirements_corpus.h"
#include "ontology/requirements_vocabulary.h"

namespace semtree {
namespace bench {

Workload MakeWorkload(size_t n, uint64_t seed, size_t fastmap_dims) {
  Workload w;
  w.vocab = RequirementsVocabulary();

  // Size the corpus so roughly n triples come out: documents carry
  // ~50 requirements each, one triple per requirement.
  CorpusOptions copts;
  copts.min_requirements_per_doc = 40;
  copts.max_requirements_per_doc = 60;
  copts.num_documents = n / 50 + 1;
  copts.num_actors = std::max<size_t>(40, n / 50);
  copts.inconsistency_rate = 0.05;
  copts.seed = seed;
  RequirementsCorpusGenerator gen(&w.vocab, copts);
  auto triples = gen.GenerateTriples();
  if (!triples.ok()) {
    std::fprintf(stderr, "workload generation failed: %s\n",
                 triples.status().ToString().c_str());
    std::abort();
  }
  w.triples = std::move(*triples);
  if (w.triples.size() > n) w.triples.resize(n);

  auto dist = TripleDistance::Make(&w.vocab);
  if (!dist.ok()) std::abort();
  w.distance = std::make_unique<TripleDistance>(std::move(*dist));

  std::vector<PreparedTriple> prepared;
  prepared.reserve(w.triples.size());
  for (const Triple& t : w.triples) prepared.push_back(w.distance->Prepare(t));
  FastMapOptions fopts;
  fopts.dimensions = fastmap_dims;
  fopts.seed = seed;
  // On every hardware thread: the embedding is bit-identical to a
  // serial training's.
  auto fm = FastMap::Train(
      w.triples.size(),
      [&](size_t i, size_t j) {
        return (*w.distance)(prepared[i], prepared[j]);
      },
      fopts, /*threads=*/0);
  if (!fm.ok()) std::abort();
  w.fastmap = std::make_unique<FastMap>(std::move(*fm));

  // The embedding's flat arena, as one contiguous block; the per-point
  // vector form stays for benches that exercise the KdPoint API.
  w.block = w.fastmap->ToPointBlock();
  w.points.resize(w.triples.size());
  for (size_t i = 0; i < w.triples.size(); ++i) {
    w.points[i] = KdPoint{w.fastmap->Coordinates(i), i};
  }
  return w;
}

std::vector<std::vector<double>> MakeQueries(const Workload& workload,
                                             size_t count, uint64_t seed,
                                             double noise) {
  Rng rng(seed);
  std::vector<std::vector<double>> queries;
  queries.reserve(count);
  for (size_t q = 0; q < count; ++q) {
    const KdPoint& base =
        workload.points[rng.Uniform(workload.points.size())];
    std::vector<double> query = base.coords;
    for (double& c : query) c += noise * rng.Gaussian();
    queries.push_back(std::move(query));
  }
  return queries;
}

double CalibrateRadius(const Workload& workload, double target_fraction,
                       uint64_t seed) {
  Rng rng(seed);
  // Sample pairwise embedded distances and take the target quantile.
  std::vector<double> sample;
  const size_t kSamples = 4000;
  sample.reserve(kSamples);
  for (size_t s = 0; s < kSamples; ++s) {
    const KdPoint& a = workload.points[rng.Uniform(workload.points.size())];
    const KdPoint& b = workload.points[rng.Uniform(workload.points.size())];
    sample.push_back(EuclideanDistance(a.coords, b.coords));
  }
  std::sort(sample.begin(), sample.end());
  size_t idx = static_cast<size_t>(
      std::min(1.0, std::max(0.0, target_fraction)) * (kSamples - 1));
  return sample[idx];
}

void PrintHeader(const char* figure, const char* title,
                 const char* columns) {
  std::printf("# %s: %s\n", figure, title);
  std::printf("figure,series,%s\n", columns);
}

void PrintRow(const char* figure, const std::string& series, double x,
              double y, const std::string& extra) {
  if (extra.empty()) {
    std::printf("%s,%s,%.0f,%.4f\n", figure, series.c_str(), x, y);
  } else {
    std::printf("%s,%s,%.0f,%.4f,%s\n", figure, series.c_str(), x, y,
                extra.c_str());
  }
  std::fflush(stdout);
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
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
  return out;
}

}  // namespace

BenchJson::BenchJson(std::string bench_name, std::string path)
    : bench_name_(std::move(bench_name)), path_(std::move(path)) {}

void BenchJson::BeginRecord() { records_.emplace_back(); }

void BenchJson::AddStr(const std::string& key, const std::string& value) {
  records_.back().push_back(Field{key, "\"" + JsonEscape(value) + "\""});
}

void BenchJson::AddInt(const std::string& key, uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", (unsigned long long)value);
  records_.back().push_back(Field{key, buf});
}

void BenchJson::AddNum(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  records_.back().push_back(Field{key, buf});
}

bool BenchJson::Write() const {
  std::string out = "{\n  \"bench\": \"" + JsonEscape(bench_name_) +
                    "\",\n  \"records\": [\n";
  for (size_t r = 0; r < records_.size(); ++r) {
    out += "    {";
    for (size_t f = 0; f < records_[r].size(); ++f) {
      if (f > 0) out += ", ";
      out += "\"" + JsonEscape(records_[r][f].key) +
             "\": " + records_[r][f].literal;
    }
    out += r + 1 < records_.size() ? "},\n" : "}\n";
  }
  out += "  ]\n}\n";
  std::FILE* f = std::fopen(path_.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "# BenchJson: cannot open '%s'\n", path_.c_str());
    return false;
  }
  bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::fprintf(stderr, "# BenchJson: short write to '%s'\n",
                 path_.c_str());
  }
  return ok;
}

}  // namespace bench
}  // namespace semtree
