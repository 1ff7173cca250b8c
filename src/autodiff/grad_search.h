/**
 * @file
 * Gradient-guided value search (paper §3.3, Algorithm 3).
 *
 * Finds model inputs and weights under which *no* operator in the
 * graph produces a NaN/Inf. Three methods are provided, matching
 * Fig. 11's ablation:
 *   kSampling       — re-draw random values until valid;
 *   kGradient       — Algorithm 3 with plain derivatives;
 *   kGradientProxy  — Algorithm 3 with proxy derivatives (full method).
 *
 * The per-model time budget is virtual (DESIGN.md "Substitutions"):
 * every iteration charges kSearchMsPerOpNodeIteration per live op node,
 * so a search's outcome is a pure function of the graph, the RNG state
 * and the config, whatever the machine's load.
 */
#ifndef NNSMITH_AUTODIFF_GRAD_SEARCH_H
#define NNSMITH_AUTODIFF_GRAD_SEARCH_H

#include "autodiff/adam.h"
#include "autodiff/backward.h"
#include "autodiff/losses.h"
#include "exec/interpreter.h"
#include "graph/graph.h"
#include "support/rng.h"

namespace nnsmith::autodiff {

/** Value-search strategies (Fig. 11). */
enum class SearchMethod {
    kSampling,
    kGradient,
    kGradientProxy,
};

/** Human-readable method name for reports. */
std::string searchMethodName(SearchMethod method);

/**
 * Virtual ms one search iteration charges per live op node: one
 * forward run plus, for the gradient methods, one backward pass.
 * Calibrated from the measured median of 0.0039 ms per op node per
 * iteration on 10-node z3 models; 1/256 keeps every charge and every
 * spend exact in binary floating point.
 */
inline constexpr double kSearchMsPerOpNodeIteration = 1.0 / 256;

/** Search configuration. */
struct SearchConfig {
    SearchMethod method = SearchMethod::kGradientProxy;
    double timeBudgetMs = 64.0;   ///< virtual; paper sweeps i*8ms, i in [1,8]
    int maxIterations = 256;      ///< hard cap independent of the budget
    double learningRate = 0.5;    ///< paper §5.1
    double initLo = 1.0;          ///< Sampling draws from [1, 9) (§5.3)
    double initHi = 9.0;
};

/** Search outcome. */
struct SearchResult {
    bool success = false;
    exec::LeafValues values;  ///< valid leaves when success
    int iterations = 0;
    double elapsedMs = 0.0;    ///< virtual ms spent (iterations x charge)
    std::string lastPredicate; ///< last loss used (diagnostics)
};

/**
 * Run the value search on a concrete graph. On success the returned
 * leaves make every intermediate numerically valid.
 */
SearchResult search(const graph::Graph& graph, Rng& rng,
                    const SearchConfig& config = SearchConfig());

} // namespace nnsmith::autodiff

#endif // NNSMITH_AUTODIFF_GRAD_SEARCH_H
