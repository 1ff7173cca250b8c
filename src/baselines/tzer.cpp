#include "baselines/tzer.h"

#include "coverage/coverage.h"
#include "fuzz/parallel_campaign.h"
#include "tirlite/tir_interp.h"
#include "tirlite/tir_passes.h"

namespace nnsmith::baselines {

using backends::BackendError;

TzerFuzzer::TzerFuzzer(uint64_t seed, fuzz::CostModel cost)
    : seed_(seed), cost_(cost)
{
}

fuzz::IterationOutcome
TzerFuzzer::iterate(const std::vector<backends::Backend*>&)
{
    fuzz::IterationOutcome outcome;
    outcome.produced = true;
    outcome.cost = 500; // TIR-level cases are cheap to build and run

    // Tzer links the whole compiler (runtime plumbing gets covered)
    // but never runs the graph frontend (Fig. 8: most of its coverage
    // is shared; its exclusive region is low-level only).
    backends::hitTvmSharedInfra(0.72);
    // Direct TIR construction exercises low-level driver APIs that
    // graph-level compilation never touches — Tzer's exclusive region
    // in Fig. 8a ("some low-level operations are not exposed at the
    // graph level").
    coverage::CoverageRegistry::instance().hitRange(
        "tvmlite/lowlevel_api", 430, 1.0);

    // Pick a seed from the corpus (coverage-guided) or start fresh.
    // All draws come from a per-iteration RNG keyed off (constructor
    // seed, iteration index), and the fresh-vs-mutate coin is tossed
    // *before* consulting the corpus: a fresh iteration's program is
    // identical no matter how corpus growth diverged earlier, instead
    // of the pick perturbing every later draw of the shared stream.
    Rng it_rng(fuzz::deriveIterationSeed(seed_, iteration_++));
    const bool fresh = it_rng.chance(0.2);
    tirlite::TirProgram program =
        fresh || corpus_.empty()
            ? tirlite::randomProgram(it_rng)
            : tirlite::mutate(corpus_[it_rng.index(corpus_.size())],
                              it_rng);

    backends::DefectRegistry::TraceScope trace_scope;
    std::vector<std::string> fired_semantic;
    bool crashed = false;
    try {
        const auto optimized =
            tirlite::runTirPipeline(program, fired_semantic);
        auto buffers = tirlite::makeBuffers(optimized, it_rng);
        tirlite::run(optimized, buffers);
    } catch (const BackendError& error) {
        crashed = true;
        fuzz::BugRecord bug;
        bug.dedupKey = "TVMLite|crash|" + error.kind();
        bug.backend = "TVMLite";
        bug.kind = "crash";
        bug.detail = error.what();
        bug.defects = trace_scope.trace();
        outcome.bugs.push_back(std::move(bug));
    }
    for (const auto& defect : fired_semantic) {
        fuzz::BugRecord bug;
        bug.dedupKey = "TVMLite|wrong|" + defect;
        bug.backend = "TVMLite";
        bug.kind = "wrong-result";
        bug.detail = defect;
        bug.defects = {defect};
        outcome.bugs.push_back(std::move(bug));
    }
    if (!outcome.bugs.empty()) {
        // Tzer always runs the fixed default pipeline; the reducer can
        // still ddmin that pipeline to the minimal failing subsequence.
        auto repro = std::make_shared<fuzz::SeqRepro>();
        repro->program = program;
        repro->sequence = tirlite::defaultTirPipeline();
        for (auto& bug : outcome.bugs)
            bug.seqRepro = repro;
    }

    pending_.reset();
    if (!crashed)
        pending_ = std::move(program);
    return outcome;
}

void
TzerFuzzer::observeCoverage(const std::vector<coverage::BranchId>& hits)
{
    // Coverage feedback: keep inputs that grew the TIR branch set.
    std::vector<coverage::BranchId> fresh;
    for (const auto id : hits) {
        if (id >= seen_.size())
            seen_.resize(id + 1, false);
        if (!seen_[id])
            fresh.push_back(id);
        seen_[id] = true;
    }
    for (const auto& site :
         coverage::CoverageRegistry::instance().describeSites(fresh))
        passCoverage_ += site.component.rfind("tvmlite/pass", 0) == 0;
    if (pending_ && passCoverage_ > lastCoverage_ && corpus_.size() < 256) {
        corpus_.push_back(std::move(*pending_));
        lastCoverage_ = passCoverage_;
    }
    pending_.reset();
}

} // namespace nnsmith::baselines
