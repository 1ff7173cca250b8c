/**
 * @file
 * Tzer-lite baseline (§5.2, Fig. 8): a coverage-guided mutation fuzzer
 * over *low-level* TIRLite programs. It exercises TVMLite's TIR passes
 * directly — including expression shapes no graph lowering produces
 * (its unique branches in Fig. 8a) — but never touches graph-level
 * import or transformation passes (hence Fig. 8b).
 */
#ifndef NNSMITH_BASELINES_TZER_H
#define NNSMITH_BASELINES_TZER_H

#include <optional>

#include "fuzz/fuzzer.h"
#include "tirlite/tir.h"

namespace nnsmith::baselines {

/** See file comment. */
class TzerFuzzer final : public fuzz::Fuzzer {
  public:
    explicit TzerFuzzer(uint64_t seed,
                        fuzz::CostModel cost = fuzz::CostModel());

    std::string name() const override { return "Tzer"; }
    fuzz::IterationOutcome
    iterate(const std::vector<backends::Backend*>& backend_list) override;

    /** Admit the last iteration's program (unless it crashed) to the
     *  corpus when the TIR pass branch set has grown. */
    void
    observeCoverage(const std::vector<coverage::BranchId>& hits) override;

    size_t corpusSize() const { return corpus_.size(); }

  private:
    uint64_t seed_;
    uint64_t iteration_ = 0; ///< keys each iterate()'s private RNG
    fuzz::CostModel cost_;
    std::vector<tirlite::TirProgram> corpus_;
    /** The last iteration's program; empty if it crashed. */
    std::optional<tirlite::TirProgram> pending_;
    std::vector<bool> seen_;     ///< by BranchId: observed before
    size_t passCoverage_ = 0;    ///< distinct tvmlite/pass sites seen
    size_t lastCoverage_ = 0;    ///< passCoverage_ at the last admission
};

} // namespace nnsmith::baselines

#endif // NNSMITH_BASELINES_TZER_H
