#include "fuzz/fuzzer.h"

#include <optional>
#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/logging.h"

namespace nnsmith::fuzz {

using difftest::CaseResult;
using difftest::Verdict;

std::vector<BugRecord>
bugsFromCase(const CaseResult& result)
{
    std::vector<BugRecord> bugs;
    if (!result.exportOk) {
        BugRecord bug;
        bug.dedupKey = "Exporter|crash|" + result.exportCrashKind;
        bug.backend = "Exporter";
        bug.kind = "export-crash";
        bug.detail = result.exportCrashKind;
        bug.defects = result.triggeredDefects;
        bugs.push_back(std::move(bug));
        return bugs;
    }
    for (const auto& v : result.verdicts) {
        if (v.verdict == Verdict::kCrash) {
            BugRecord bug;
            bug.dedupKey = v.backend + "|crash|" + v.crashKind;
            bug.backend = v.backend;
            bug.kind = "crash";
            bug.detail = v.detail;
            bug.defects = result.triggeredDefects;
            bugs.push_back(std::move(bug));
        } else if (v.verdict == Verdict::kWrongResult) {
            // Dedup semantic issues by the set of triggered semantic
            // defects (the paper dedups by eventual patch; the trace
            // is our ground-truth analogue).
            std::ostringstream key;
            key << v.backend << "|wrong|";
            for (const auto& d : result.triggeredDefects)
                key << d << ",";
            BugRecord bug;
            bug.dedupKey = key.str();
            bug.backend = v.backend;
            bug.kind = "wrong-result";
            bug.detail = v.detail;
            bug.defects = result.triggeredDefects;
            bugs.push_back(std::move(bug));
        }
    }
    return bugs;
}

IterationOutcome
executeGraphCase(const graph::Graph& graph, const exec::LeafValues& leaves,
                 const std::vector<backends::Backend*>& backend_list,
                 const CostModel& cost)
{
    return executeGraphCaseBatch(graph, {leaves}, backend_list, cost,
                                 /*sweep=*/false);
}

IterationOutcome
executeGraphCaseBatch(const graph::Graph& graph,
                      const std::vector<exec::LeafValues>& lanes,
                      const std::vector<backends::Backend*>& backend_list,
                      const CostModel& cost, bool sweep)
{
    IterationOutcome outcome;
    outcome.produced = true;
    std::vector<CaseResult> results;
    if (sweep) {
        results = difftest::runCaseBatch(graph, lanes, backend_list);
    } else {
        results.reserve(lanes.size());
        for (const auto& leaves : lanes)
            results.push_back(difftest::runCase(graph, leaves, backend_list));
    }
    for (size_t l = 0; l < lanes.size(); ++l) {
        auto bugs = bugsFromCase(results[l]);
        if (!bugs.empty()) {
            // One shared repro for all of this lane's records; the
            // reduction subsystem (reduce/reducer.h) delta-debugs it.
            auto repro = std::make_shared<GraphRepro>();
            repro->graph = graph;
            repro->leaves = lanes[l];
            for (auto& bug : bugs)
                bug.graphRepro = repro;
        }
        for (auto& bug : bugs)
            outcome.bugs.push_back(std::move(bug));
        // Each lane is a full differential case: it pays the backend
        // compile+run virtual cost. What batching amortizes is the
        // per-iteration generation/search cost (added by the caller).
        for (const auto* backend : backend_list) {
            if (backend->name() == "OrtLite")
                outcome.cost += cost.backendCompileOrt + cost.run;
            else if (backend->name() == "TVMLite")
                outcome.cost += cost.backendCompileTvm + cost.run;
            else
                outcome.cost += cost.backendCompileTrt + cost.run;
        }
    }
    return outcome;
}

NNSmithFuzzer::NNSmithFuzzer(Options options, uint64_t seed)
    : options_(std::move(options)), rng_(seed), next_seed_(seed)
{
}

IterationOutcome
NNSmithFuzzer::iterate(const std::vector<backends::Backend*>& backend_list)
{
    gen::GraphGenerator generator(options_.generator, next_seed_++);
    // The "gen" phase covers graph synthesis and value search — all
    // the work of building a test case before any backend runs it.
    std::optional<obs::PhaseSpan> gen_span;
    gen_span.emplace("gen");
    const auto model = generator.generate();
    if (!model) {
        IterationOutcome outcome;
        outcome.cost =
            options_.cost.generationPerOp * options_.generator.targetOpNodes;
        return outcome;
    }
    ++generated_;

    exec::LeafValues leaves;
    if (options_.runValueSearch) {
        const auto search =
            autodiff::search(model->graph, rng_, options_.search);
        obs::histObserve("search.iterations",
                         static_cast<uint64_t>(search.iterations));
        obs::counterAdd(search.success ? "search.success"
                                       : "search.fallback");
        leaves = search.success
                     ? search.values
                     : exec::randomLeaves(model->graph, rng_,
                                          options_.search.initLo,
                                          options_.search.initHi);
    } else {
        leaves = exec::randomLeaves(model->graph, rng_);
    }
    // Lane 0 is the sequential case's inputs verbatim; extra lanes are
    // additional random input sets for the same graph. Drawing them
    // here keeps all rng_ consumption inside case construction, so a
    // fixed batch size stays deterministic across worker matrices
    // (per-iteration fuzzers are seeded via deriveIterationSeed).
    std::vector<exec::LeafValues> lanes;
    lanes.reserve(options_.batch > 0 ? options_.batch : 1);
    lanes.push_back(std::move(leaves));
    for (size_t l = 1; l < options_.batch; ++l)
        lanes.push_back(exec::randomLeaves(model->graph, rng_));
    gen_span.reset();

    IterationOutcome outcome = executeGraphCaseBatch(
        model->graph, lanes, backend_list, options_.cost,
        /*sweep=*/options_.batchSweep && lanes.size() > 1);
    outcome.cost += options_.cost.generationPerOp *
                        model->graph.numOpNodes() +
                    (options_.runValueSearch ? options_.cost.valueSearch
                                             : 0);
    outcome.instanceKeys = model->instanceKeys();
    return outcome;
}

} // namespace nnsmith::fuzz
