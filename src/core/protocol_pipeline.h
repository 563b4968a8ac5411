// The shared protocol-execution pipeline.
//
// Naive (Alg. 1), OneR (Alg. 2), MultiR-SS (Alg. 3), and MultiR-DS
// (Alg. 4) all decompose into the same two phases:
//
//   release       each query vertex publishes an ε1-randomized response of
//                 its neighbor list, a Laplace-noised scalar estimator at
//                 ε2, or both;
//   post-process  privacy-free arithmetic on those releases — φ(i, j)
//                 de-biasing, Laplace noise injection, and the
//                 α-combination of the two single-source estimators.
//
// A `ProtocolPlan` captures the release structure (which vertices release
// what, at which ε); `DebiasConstants` holds the de-bias coefficients that
// depend only on the randomized-response budget; `PostProcess` is the one
// definition of the per-query arithmetic. The per-pair estimators
// (naive/oner/multir_ss/multir_ds.cc) are thin drivers over
// `ExecuteProtocol`. The query service (service/query_service.cc) drives
// the same arithmetic over its shared noisy-view store: `PostProcess` per
// query for the MultiR family, and `ViewPairFromCounts` for Naive/OneR,
// whose intersections it counts a chunk of queries at a time —
// one implementation, two consumers.

#ifndef CNE_CORE_PROTOCOL_PIPELINE_H_
#define CNE_CORE_PROTOCOL_PIPELINE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "core/estimator.h"
#include "graph/bipartite_graph.h"
#include "ldp/randomized_response.h"
#include "util/rng.h"

namespace cne {

/// The four protocols sharing the pipeline. The service layer aliases this
/// as `ServiceAlgorithm`.
enum class ProtocolKind { kNaive, kOneR, kMultiRSS, kMultiRDS };

/// Display name, e.g. "OneR".
const char* ToString(ProtocolKind kind);

/// Parses a display name ("Naive", "OneR", "MultiR-SS", "MultiR-DS").
std::optional<ProtocolKind> ParseProtocolKind(const std::string& name);

/// The release structure of one protocol execution: which query vertices
/// release what, at which budget. A plan is independent of the query pair —
/// one plan drives a whole workload.
struct ProtocolPlan {
  ProtocolKind kind = ProtocolKind::kOneR;

  /// Randomized-response budget of each released noisy view (the full ε
  /// for Naive/OneR, the ε1 share for the MultiR family).
  double epsilon1 = 0.0;

  /// Laplace budget of each released scalar estimator (0 when the protocol
  /// releases none).
  double epsilon2 = 0.0;

  /// Weight of f_u in the double-source combination (MultiR-DS only).
  double alpha = 0.5;

  /// True when the protocol consumes u's noisy view. MultiR-SS is the one
  /// protocol that does not: only w releases randomized response.
  bool UsesNoisyViewU() const { return kind != ProtocolKind::kMultiRSS; }

  /// True when the protocol consumes w's noisy view (all four do).
  bool UsesNoisyViewW() const { return true; }

  /// True when u releases a Laplace-noised single-source estimator.
  bool LaplaceFromU() const {
    return kind == ProtocolKind::kMultiRSS || kind == ProtocolKind::kMultiRDS;
  }

  /// True when w releases a Laplace-noised single-source estimator.
  bool LaplaceFromW() const { return kind == ProtocolKind::kMultiRDS; }

  int NumLaplaceReleases() const {
    return (LaplaceFromU() ? 1 : 0) + (LaplaceFromW() ? 1 : 0);
  }

  /// Interaction rounds of the release phase: one randomized-response
  /// round, plus one Laplace round when any scalar is released.
  int NumRounds() const { return 1 + (NumLaplaceReleases() > 0 ? 1 : 0); }
};

/// Builds the plan for `kind` under total budget `epsilon`, spending
/// `epsilon1_fraction` of it on randomized response for the MultiR family
/// (Naive/OneR spend everything on it). `alpha` only matters for
/// MultiR-DS.
ProtocolPlan MakeProtocolPlan(ProtocolKind kind, double epsilon,
                              double epsilon1_fraction, double alpha = 0.5);

/// Builds a plan from an explicit (ε1, ε2) split, e.g. one produced by the
/// allocation optimizer.
ProtocolPlan MakeProtocolPlanSplit(ProtocolKind kind, double epsilon1,
                                   double epsilon2, double alpha = 0.5);

/// The φ(i, j) de-bias coefficients of an ε1-randomized-response release.
/// Pure function of the flip probability; in batch execution they are
/// computed once per workload instead of once per query.
struct DebiasConstants {
  double flip_probability = 0.0;  ///< p
  double q = 1.0;                 ///< 1 - 2p

  // Single-source estimator: f = S1 · stay − S2 · flip.
  double stay = 1.0;  ///< (1-p)/q — also the Laplace sensitivity of f
  double flip = 0.0;  ///< p/q

  // OneR closed form: estimate = N1 · c11 − (N2 − N1) · c10 + (n − N2) · c00.
  double c11 = 1.0;  ///< (1-p)² / q²
  double c10 = 0.0;  ///< (1-p)p / q²
  double c00 = 0.0;  ///< p² / q²
};

/// Constants for a release made with flip probability `p`.
DebiasConstants MakeDebiasConstants(double flip_probability);

/// Constants for an ε1-randomized-response release.
DebiasConstants MakeDebiasConstantsForEpsilon(double epsilon1);

/// The OneR estimate from the noisy intersection N1, noisy union N2, and
/// the opposite-layer size n. The one definition of the closed form;
/// OneRClosedForm (oner.h) and every batch path delegate here.
inline double OneRFromCounts(const DebiasConstants& d, uint64_t n1,
                             uint64_t n2, uint64_t opposite_size) {
  return static_cast<double>(n1) * d.c11 -
         static_cast<double>(n2 - n1) * d.c10 +
         static_cast<double>(opposite_size - n2) * d.c00;
}

/// The Naive/OneR estimate from the noisy intersection n1 = |N'(u) ∩ N'(w)|
/// and the two view sizes: n1 itself for Naive, the OneR closed form over
/// N2 = |N'(u)| + |N'(w)| − n1 for OneR. Symmetric in u and w. The one
/// definition of both protocols' arithmetic; PostProcess and the service's
/// blocked execute both finish here. `plan` must be Naive or OneR.
double ViewPairFromCounts(const ProtocolPlan& plan, const DebiasConstants& d,
                          uint64_t n1, uint64_t size_u, uint64_t size_w,
                          uint64_t opposite_size);

/// The noiseless single-source estimator f_u from S1 = |N(u) ∩ N'(w)| and
/// deg(u) (so S2 = deg(u) − S1).
inline double SingleSourceFromCounts(const DebiasConstants& d, uint64_t s1,
                                     uint64_t degree) {
  return static_cast<double>(s1) * d.stay -
         static_cast<double>(degree - s1) * d.flip;
}

/// The α-combination of the two Laplace-released single-source estimators.
inline double CombineDoubleSource(double alpha, double f_u, double f_w) {
  return alpha * f_u + (1.0 - alpha) * f_w;
}

/// Unbiased degree estimate from the *size* of a vertex's released noisy
/// view: E[size] = d(1-p) + (n-d)p, so d̂ = (size − p·n)/(1 − 2p). Pure
/// post-processing on an existing release — no extra budget.
inline double DebiasedDegreeFromViewSize(const DebiasConstants& d,
                                         uint64_t view_size,
                                         VertexId domain) {
  return (static_cast<double>(view_size) -
          d.flip_probability * static_cast<double>(domain)) /
         d.q;
}

/// The noiseless single-source estimator f_u built from u's true neighbors
/// and w's noisy neighbor set (before the Laplace release). Convenience
/// wrapper over SingleSourceFromCounts; exposed for MultiR-DS, the query
/// service, and tests.
double SingleSourceEstimate(const BipartiteGraph& graph, LayeredVertex u,
                            const NoisyNeighborSet& noisy_w);

/// The released material of one query, in borrowed form. Views must be
/// present exactly when the plan consumes them; the neighbor spans and
/// `opposite_size` are only read by the protocols that need them.
struct ReleasedInputs {
  const NoisyNeighborSet* view_u = nullptr;
  const NoisyNeighborSet* view_w = nullptr;
  std::span<const VertexId> neighbors_u;  ///< true list (MultiR family)
  std::span<const VertexId> neighbors_w;  ///< true list (MultiR-DS)
  VertexId opposite_size = 0;             ///< |opposite layer| (OneR)
};

/// Post-processes one query's releases into its estimate: the shared
/// definition of the per-query arithmetic. Draws exactly
/// plan.NumLaplaceReleases() Laplace variates from `rng`, f_u's before
/// f_w's; Naive/OneR draw nothing. `debias` must describe an ε1 release
/// (MakeDebiasConstantsForEpsilon(plan.epsilon1)).
double PostProcess(const ProtocolPlan& plan, const DebiasConstants& debias,
                   const ReleasedInputs& inputs, Rng& rng);

/// Outcome of one full per-pair protocol execution.
struct ProtocolOutcome {
  double estimate = 0.0;
  int rounds = 0;
  double uploaded_bytes = 0.0;
  double downloaded_bytes = 0.0;
};

/// Simulates one full protocol execution for `query`: draws the plan's
/// releases from `rng` (u's view, then w's, then the Laplace variates),
/// post-processes them, and accounts communication (each released view is
/// uploaded; the MultiR family additionally downloads every released view
/// to the counterpart vertex and uploads one scalar per Laplace release).
/// The per-pair estimators are thin drivers over this function.
ProtocolOutcome ExecuteProtocol(const BipartiteGraph& graph,
                                const QueryPair& query,
                                const ProtocolPlan& plan, Rng& rng);

}  // namespace cne

#endif  // CNE_CORE_PROTOCOL_PIPELINE_H_
