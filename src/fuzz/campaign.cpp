#include "fuzz/campaign.h"

#include <algorithm>
#include <sstream>

#include "backends/defects.h"
#include "fuzz/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "reduce/reducer.h"
#include "reduce/report.h"
#include "support/logging.h"

namespace nnsmith::fuzz {

using coverage::CoverageRegistry;

namespace {

/** The sorted canonical site keys of @p map, one per line. */
std::string
renderSites(const coverage::CoverageMap& map)
{
    const std::vector<coverage::BranchId> ids(map.branches().begin(),
                                              map.branches().end());
    std::vector<std::string> keys;
    for (auto& site : CoverageRegistry::instance().describeSites(ids))
        keys.push_back(std::move(site.key));
    std::sort(keys.begin(), keys.end());
    std::string out;
    for (const auto& key : keys)
        out += key + "\n";
    return out;
}

} // namespace

CampaignResult
runCampaign(Fuzzer& fuzzer,
            const std::vector<backends::Backend*>& backends,
            const CampaignConfig& config)
{
    auto& registry = CoverageRegistry::instance();
    registry.resetHits();

    CampaignResult result;
    result.fuzzer = fuzzer.name();
    if (!config.corpusDir.empty()) {
        // Re-check every known bug before fresh fuzzing. The scratch
        // collector keeps replay's oracle runs out of the global hit
        // bits, so --corpus cannot perturb campaign coverage.
        obs::PhaseSpan span("replay");
        coverage::CoverageCollector scratch;
        try {
            result.regressions =
                corpus::replayCorpus(config.corpusDir, backends);
        } catch (const corpus::ParseError& error) {
            // A missing or malformed index is a configuration error
            // (mistyped --corpus), not an internal failure.
            fatal(std::string("runCampaign corpusDir: ") + error.what());
        }
        corpus::writeRegressions(config.corpusDir, result.regressions);
    }
    VirtualClock clock;
    double next_sample = 0.0;

    auto take_sample = [&]() {
        CampaignPoint point;
        point.minutes = clock.minutes();
        point.iterations = result.iterations;
        point.coverageAll =
            registry.snapshot(config.coverageComponent).count();
        point.coveragePass =
            registry.snapshotPassOnly(config.coverageComponent).count();
        result.series.push_back(point);
    };
    take_sample();
    next_sample = config.sampleEveryMinutes;

    while (clock.now() < config.virtualBudget &&
           result.iterations < config.maxIterations) {
        IterationOutcome outcome = fuzzer.iterate(backends);
        ++result.iterations;
        result.produced += outcome.produced ? 1 : 0;
        obs::counterAdd("campaign.iterations");
        if (outcome.produced)
            obs::counterAdd("campaign.produced");
        if (!outcome.bugs.empty())
            obs::counterAdd("campaign.bugs.flagged", outcome.bugs.size());
        clock.advance(std::max<VirtualMs>(outcome.cost, 1));
        if (config.minimize && !outcome.bugs.empty()) {
            // Keep the reduction's oracle re-runs out of the global
            // coverage hit bits so --minimize does not change coverage
            // (requires no collector active on this thread; sharded
            // campaigns go through runParallelCampaign instead).
            coverage::CoverageCollector scratch;
            reduce::minimizeBugs(outcome.bugs, backends);
        }
        for (auto& bug : outcome.bugs) {
            for (const auto& defect : bug.defects)
                result.defectsFound.insert(defect);
            result.bugs.emplace(bug.dedupKey, std::move(bug));
        }
        for (auto& key : outcome.instanceKeys)
            result.instanceKeys.insert(std::move(key));
        while (clock.minutes() >= next_sample) {
            take_sample();
            // Re-stamp the sample at its nominal bucket boundary so
            // different fuzzers' series align on the x axis.
            result.series.back().minutes = next_sample;
            next_sample += config.sampleEveryMinutes;
        }
    }
    result.activeTime = clock.now();
    // If the real-iteration cap was hit before the virtual budget,
    // fast-forward the converged plateau: coverage cannot grow without
    // new test cases, so the remaining samples hold the final value
    // (the paper notes curves "generally converge before" 4 hours).
    // Bounded so iteration-capped campaigns with huge budgets stay
    // cheap.
    while (clock.now() < config.virtualBudget &&
           result.series.size() < 4096) {
        clock.advance(
            static_cast<VirtualMs>(config.sampleEveryMinutes) * 60 * 1000);
        take_sample();
        result.series.back().minutes = next_sample;
        next_sample += config.sampleEveryMinutes;
    }
    take_sample();
    result.coverAll = registry.snapshot(config.coverageComponent);
    result.coverPass =
        registry.snapshotPassOnly(config.coverageComponent);
    result.virtualTime = clock.now();
    if (!config.reportDir.empty())
        reduce::writeReproReports(result.bugs, config.reportDir);
    return result;
}

std::string
renderCampaignResult(const CampaignResult& result)
{
    // encodeBug re-runs the ONNX export for graph repros: keep its
    // coverage hits and defect triggers out of global state.
    coverage::CoverageCollector scratch;
    backends::DefectRegistry::TraceScope trace_scope;
    std::ostringstream out;
    out.precision(17);
    out << "fuzzer " << result.fuzzer << "\niterations " << result.iterations
        << "\nproduced " << result.produced << "\nvirtual "
        << result.virtualTime << "\nactive " << result.activeTime
        << "\n[series]\n";
    for (const auto& point : result.series)
        out << point.minutes << ' ' << point.iterations << ' '
            << point.coverageAll << ' ' << point.coveragePass << '\n';
    out << "[coverAll]\n" << renderSites(result.coverAll);
    out << "[coverPass]\n" << renderSites(result.coverPass);
    for (const auto& [key, bug] : result.bugs)
        out << "[bug " << key << "]\n" << wire::encodeBug(bug) << '\n';
    out << "[instances]\n";
    for (const auto& key : result.instanceKeys)
        out << key << '\n';
    out << "[defects]\n";
    for (const auto& id : result.defectsFound)
        out << id << '\n';
    out << "[regressions]\n" << corpus::renderRegressions(result.regressions);
    return out.str();
}

} // namespace nnsmith::fuzz
