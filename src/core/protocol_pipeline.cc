#include "core/protocol_pipeline.h"

#include "graph/set_ops.h"
#include "ldp/comm_model.h"
#include "ldp/laplace_mechanism.h"
#include "util/logging.h"

namespace cne {

const char* ToString(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kNaive:
      return "Naive";
    case ProtocolKind::kOneR:
      return "OneR";
    case ProtocolKind::kMultiRSS:
      return "MultiR-SS";
    case ProtocolKind::kMultiRDS:
      return "MultiR-DS";
  }
  return "?";
}

std::optional<ProtocolKind> ParseProtocolKind(const std::string& name) {
  for (ProtocolKind kind :
       {ProtocolKind::kNaive, ProtocolKind::kOneR, ProtocolKind::kMultiRSS,
        ProtocolKind::kMultiRDS}) {
    if (name == ToString(kind)) return kind;
  }
  return std::nullopt;
}

ProtocolPlan MakeProtocolPlan(ProtocolKind kind, double epsilon,
                              double epsilon1_fraction, double alpha) {
  CNE_CHECK(epsilon > 0.0) << "epsilon must be positive";
  if (kind == ProtocolKind::kNaive || kind == ProtocolKind::kOneR) {
    return MakeProtocolPlanSplit(kind, epsilon, 0.0, alpha);
  }
  CNE_CHECK(epsilon1_fraction > 0.0 && epsilon1_fraction < 1.0)
      << "epsilon1 fraction must lie in (0, 1)";
  const double epsilon1 = epsilon * epsilon1_fraction;
  return MakeProtocolPlanSplit(kind, epsilon1, epsilon - epsilon1, alpha);
}

ProtocolPlan MakeProtocolPlanSplit(ProtocolKind kind, double epsilon1,
                                   double epsilon2, double alpha) {
  ProtocolPlan plan;
  plan.kind = kind;
  plan.epsilon1 = epsilon1;
  plan.epsilon2 = epsilon2;
  plan.alpha = alpha;
  CNE_CHECK(plan.epsilon1 > 0.0) << "epsilon1 must be positive";
  CNE_CHECK(plan.NumLaplaceReleases() == 0 || plan.epsilon2 > 0.0)
      << "the MultiR family needs a positive Laplace budget";
  return plan;
}

DebiasConstants MakeDebiasConstants(double flip_probability) {
  const double p = flip_probability;
  const double q = 1.0 - 2.0 * p;
  DebiasConstants d;
  d.flip_probability = p;
  d.q = q;
  d.stay = (1.0 - p) / q;
  d.flip = p / q;
  const double q2 = q * q;
  d.c11 = (1.0 - p) * (1.0 - p) / q2;
  d.c10 = (1.0 - p) * p / q2;
  d.c00 = p * p / q2;
  return d;
}

DebiasConstants MakeDebiasConstantsForEpsilon(double epsilon1) {
  return MakeDebiasConstants(FlipProbability(epsilon1));
}

double SingleSourceEstimate(const BipartiteGraph& graph, LayeredVertex u,
                            const NoisyNeighborSet& noisy_w) {
  const DebiasConstants d = MakeDebiasConstants(noisy_w.flip_probability());
  const auto neighbors = graph.Neighbors(u);
  // S1 = neighbors of u that are noisy neighbors of w; S2 = the rest.
  // The true list is small and the noisy row huge: the dispatcher probes
  // the bitmap directly, or gallops when w's release stayed sorted.
  const uint64_t s1 =
      IntersectionSize(SetView::Sorted(neighbors), noisy_w.View());
  return SingleSourceFromCounts(d, s1, neighbors.size());
}

double ViewPairFromCounts(const ProtocolPlan& plan, const DebiasConstants& d,
                          uint64_t n1, uint64_t size_u, uint64_t size_w,
                          uint64_t opposite_size) {
  if (plan.kind == ProtocolKind::kNaive) return static_cast<double>(n1);
  CNE_CHECK(plan.kind == ProtocolKind::kOneR)
      << ToString(plan.kind) << " does not finish from a view pair";
  return OneRFromCounts(d, n1, size_u + size_w - n1, opposite_size);
}

double PostProcess(const ProtocolPlan& plan, const DebiasConstants& debias,
                   const ReleasedInputs& inputs, Rng& rng) {
  switch (plan.kind) {
    case ProtocolKind::kNaive:
    case ProtocolKind::kOneR:
      return ViewPairFromCounts(
          plan, debias,
          IntersectionSize(inputs.view_u->View(), inputs.view_w->View()),
          inputs.view_u->Size(), inputs.view_w->Size(), inputs.opposite_size);
    case ProtocolKind::kMultiRSS: {
      const uint64_t s1 = IntersectionSize(
          SetView::Sorted(inputs.neighbors_u), inputs.view_w->View());
      const double f_u =
          SingleSourceFromCounts(debias, s1, inputs.neighbors_u.size());
      // debias.stay is the single-source sensitivity (1-p)/(1-2p).
      return LaplaceMechanism(f_u, debias.stay, plan.epsilon2, rng);
    }
    case ProtocolKind::kMultiRDS: {
      const uint64_t s1_u = IntersectionSize(
          SetView::Sorted(inputs.neighbors_u), inputs.view_w->View());
      const uint64_t s1_w = IntersectionSize(
          SetView::Sorted(inputs.neighbors_w), inputs.view_u->View());
      const double f_u = LaplaceMechanism(
          SingleSourceFromCounts(debias, s1_u, inputs.neighbors_u.size()),
          debias.stay, plan.epsilon2, rng);
      const double f_w = LaplaceMechanism(
          SingleSourceFromCounts(debias, s1_w, inputs.neighbors_w.size()),
          debias.stay, plan.epsilon2, rng);
      return CombineDoubleSource(plan.alpha, f_u, f_w);
    }
  }
  CNE_CHECK(false) << "unreachable";
  return 0.0;
}

ProtocolOutcome ExecuteProtocol(const BipartiteGraph& graph,
                                const QueryPair& query,
                                const ProtocolPlan& plan, Rng& rng) {
  const LayeredVertex u{query.layer, query.u};
  const LayeredVertex w{query.layer, query.w};
  CommLedger comm;

  // Release phase. Draw order is fixed — u's view, then w's, then the
  // Laplace variates inside PostProcess — so one protocol execution is one
  // deterministic function of (graph, query, plan, rng state).
  NoisyNeighborSet noisy_u, noisy_w;
  if (plan.UsesNoisyViewU()) {
    noisy_u = ApplyRandomizedResponse(graph, u, plan.epsilon1, rng);
  }
  noisy_w = ApplyRandomizedResponse(graph, w, plan.epsilon1, rng);

  const bool interactive = plan.NumLaplaceReleases() > 0;
  if (plan.UsesNoisyViewU()) {
    comm.UploadEdges(noisy_u.Size());
    if (interactive) comm.DownloadEdges(noisy_u.Size());
  }
  comm.UploadEdges(noisy_w.Size());
  if (interactive) comm.DownloadEdges(noisy_w.Size());
  comm.UploadScalars(plan.NumLaplaceReleases());

  ReleasedInputs inputs;
  inputs.view_u = plan.UsesNoisyViewU() ? &noisy_u : nullptr;
  inputs.view_w = &noisy_w;
  inputs.neighbors_u = graph.Neighbors(u);
  inputs.neighbors_w = graph.Neighbors(w);
  inputs.opposite_size = graph.NumVertices(Opposite(query.layer));

  ProtocolOutcome outcome;
  outcome.estimate = PostProcess(
      plan, MakeDebiasConstantsForEpsilon(plan.epsilon1), inputs, rng);
  outcome.rounds = plan.NumRounds();
  outcome.uploaded_bytes = comm.UploadedBytes();
  outcome.downloaded_bytes = comm.DownloadedBytes();
  return outcome;
}

}  // namespace cne
