#include "apps/topk.h"

#include <algorithm>
#include <unordered_set>

#include "graph/set_ops.h"
#include "util/logging.h"

namespace cne {

namespace {

void SortAndTruncate(std::vector<ScoredVertex>& scored, size_t k) {
  std::sort(scored.begin(), scored.end(),
            [](const ScoredVertex& a, const ScoredVertex& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.vertex < b.vertex;  // deterministic tie-break
            });
  if (scored.size() > k) scored.resize(k);
}

}  // namespace

TopKResult ServiceTopKCommonNeighbors(QueryService& service,
                                      LayeredVertex source,
                                      const std::vector<VertexId>& candidates,
                                      size_t k) {
  CNE_CHECK(!candidates.empty()) << "no candidates";
  std::vector<QueryPair> workload;
  workload.reserve(candidates.size());
  for (VertexId candidate : candidates) {
    if (candidate == source.id) continue;
    workload.push_back({source.layer, source.id, candidate});
  }
  TopKResult result;
  result.epsilon_per_candidate = service.options().epsilon;
  if (workload.empty()) return result;
  const ServiceReport report = service.Submit(workload);
  result.ranked.reserve(report.answers.size());
  for (const ServiceAnswer& answer : report.answers) {
    if (answer.rejected) continue;
    result.ranked.push_back({answer.query.w, answer.estimate});
  }
  SortAndTruncate(result.ranked, k);
  return result;
}

TopKResult ExactTopKCommonNeighbors(const BipartiteGraph& graph,
                                    LayeredVertex source,
                                    const std::vector<VertexId>& candidates,
                                    size_t k) {
  TopKResult result;
  result.ranked.reserve(candidates.size());
  // The source row is intersected against every candidate: pack it into a
  // bitmap once and each candidate costs O(deg) O(1)-probes instead of a
  // merge over both rows. Falls back to the adaptive sorted kernels when
  // the one-off packing would dominate (short row, single candidate).
  const auto source_nb = graph.Neighbors(source);
  const VertexId domain = graph.NumVertices(Opposite(source.layer));
  DenseBitset source_bits;
  const bool pack = candidates.size() > 1 &&
                    source_nb.size() >= static_cast<size_t>(domain) / 64;
  if (pack) {
    source_bits = DenseBitset(domain);
    for (VertexId v : source_nb) source_bits.Set(v);
  }
  const SetView source_view =
      pack ? SetView::Bitmap(source_bits, source_nb.size())
           : SetView::Sorted(source_nb);
  for (VertexId candidate : candidates) {
    if (candidate == source.id) continue;
    const SetView candidate_view =
        SetView::Sorted(graph.Neighbors(source.layer, candidate));
    result.ranked.push_back(
        {candidate, static_cast<double>(
                        IntersectionSize(candidate_view, source_view))});
  }
  SortAndTruncate(result.ranked, k);
  return result;
}

double TopKRecall(const TopKResult& exact, const TopKResult& estimated) {
  if (exact.ranked.empty()) return 1.0;
  std::unordered_set<VertexId> truth;
  for (const ScoredVertex& sv : exact.ranked) truth.insert(sv.vertex);
  size_t hits = 0;
  for (const ScoredVertex& sv : estimated.ranked) {
    if (truth.count(sv.vertex)) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(truth.size());
}

}  // namespace cne
