/**
 * @file
 * NNSmith's model generator (paper §3.2, Algorithm 1).
 *
 * Starting from a single placeholder, the generator repeatedly inserts
 * a randomly chosen operator either *forward* (consuming existing
 * values, creating fresh weight/input placeholders for unfilled slots)
 * or *backward* (becoming the producer of an existing placeholder).
 * Each insertion is accepted only if the accumulated constraint system
 * stays satisfiable (incremental solving). Attribute binning
 * (Algorithm 2) then diversifies the solver's model before
 * concretization.
 */
#ifndef NNSMITH_GEN_GENERATOR_H
#define NNSMITH_GEN_GENERATOR_H

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "ops/registry.h"
#include "solver/solver.h"
#include "support/rng.h"

namespace nnsmith::gen {

/** Knobs of the generator. */
struct GeneratorConfig {
    /** Number of operator nodes to aim for (paper default: 10). */
    int targetOpNodes = 10;

    /** Give up after this many failed insertion attempts in a row. */
    int maxConsecutiveFailures = 64;

    /** Probability of forward (vs backward) insertion (paper: 0.5). */
    double forwardProb = 0.5;

    /** Attribute binning on/off and bin count k (paper: k = 7). */
    bool enableBinning = true;
    int binningK = 7;

    /** Which solver backend to use. */
    solver::SolverKind solverKind = solver::SolverKind::kAuto;

    /**
     * When filling a forward-insertion input slot, probability of
     * creating a fresh placeholder even though an existing value
     * matches (keeps weight/input diversity up).
     */
    double freshPlaceholderProb = 0.25;

    /** Restrict generation to these operators (empty = all). */
    std::vector<std::string> opAllowlist;

    /**
     * Multiplies every per-rank dimension cap (rank > 0). 1 keeps the
     * paper-scale models; larger values open heavy-tensor workloads
     * that stress the execution path (bench/bench_kernels.cpp).
     */
    int64_t dimCapScale = 1;

    /**
     * Lower bound on every free dimension (clamped to the per-rank
     * cap). The default 1 reproduces the paper-scale models; raising
     * it pins generated tensors to a heavy-tensor regime. Note that
     * raising it also makes broadcast-mask constraints demanding a
     * dim == 1 unsatisfiable, so such insertions are skipped.
     */
    int64_t dimFloor = 1;

    /** Per-rank dimension caps keeping kernels tractable. The rank-4
     *  cap also bounds every pooling attribute (kh, kw, stride, pad). */
    int64_t dimCapForRank(int rank) const;
};

/** A fully generated, concrete, valid test-case model. */
struct GeneratedModel {
    graph::Graph graph;             ///< concrete executable graph
    symbolic::Assignment solution;  ///< the SMT model used
    int solverQueries = 0;
    int rejectedInsertions = 0;

    /** Instance key for Fig. 9 diversity stats:
     *  "<op>|<in types>|<attrs>" per operator node. */
    std::vector<std::string> instanceKeys() const;
};

/** See file comment. */
class GraphGenerator {
  public:
    GraphGenerator(GeneratorConfig config, uint64_t seed);

    /**
     * Generate one model; nullopt if the attempt budget was exhausted
     * (rare — retried by callers). Counts the attempt's solver queries
     * and rejected insertions into the metrics registry
     * (gen.solver_queries, gen.rejected_insertions), and failed
     * attempts as gen.failed.
     */
    std::optional<GeneratedModel> generate();

    /** Ops eligible under the config's allowlist. */
    const std::vector<const ops::OpMeta*>& candidateOps() const
    { return candidates_; }

  private:
    struct Session; // per-generate() mutable state

    /** One generation attempt in @p session (generate() minus the
     *  outcome metrics). */
    std::optional<GeneratedModel> build(Session& session);

    bool tryInsert(Session& session, const ops::OpMeta& meta);
    bool forwardInsert(Session& session, const ops::OpMeta& meta);
    bool backwardInsert(Session& session, const ops::OpMeta& meta);

    /** Fresh placeholder type of @p rank and @p dtype with dim caps. */
    tensor::TensorType
    makePlaceholderType(Session& session, tensor::DType dtype, int rank,
                        std::vector<symbolic::Pred>& pending);

    GeneratorConfig config_;
    Rng rng_;
    std::vector<const ops::OpMeta*> candidates_;
};

/** Output-dim sanity constraints: 1 <= dim <= cap(rank). */
std::vector<symbolic::Pred>
dimBoundsFor(const tensor::TensorType& type, const GeneratorConfig& config);

} // namespace nnsmith::gen

#endif // NNSMITH_GEN_GENERATOR_H
