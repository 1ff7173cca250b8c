#include "fuzz/campaign.h"

#include <algorithm>
#include <sstream>

#include "backends/defects.h"
#include "fuzz/parallel_campaign.h"
#include "fuzz/wire.h"
#include "obs/trace.h"
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

corpus::ReplayResult
replayCampaignCorpus(const std::string& corpus_dir,
                     const std::vector<backends::Backend*>& backends)
{
    obs::PhaseSpan span("replay");
    corpus::ReplayResult regressions;
    try {
        regressions = corpus::replayCorpus(corpus_dir, backends);
    } catch (const corpus::ParseError& error) {
        // A missing or malformed index is a configuration error
        // (mistyped --corpus), not an internal failure.
        fatal(std::string("campaign corpusDir: ") + error.what());
    }
    corpus::writeRegressions(corpus_dir, regressions);
    return regressions;
}

CampaignResult
runCampaign(Fuzzer& fuzzer,
            const std::vector<backends::Backend*>& backends,
            const CampaignConfig& config)
{
    // Backends were built by the caller, so the collector sees only
    // replay's oracle runs (dropped) and then the iterations.
    coverage::CoverageCollector collector;
    corpus::ReplayResult regressions;
    if (!config.corpusDir.empty()) {
        regressions = replayCampaignCorpus(config.corpusDir, backends);
        collector.take();
    }

    // Capture exactly the prefix the merge consumes: until the
    // cumulative cost reaches the budget or the cap.
    ShardResult shard;
    VirtualMs spent = 0;
    for (size_t index = 0;
         spent < config.virtualBudget && index < config.maxIterations;
         ++index) {
        shard.records.push_back(
            captureIteration(fuzzer, index, config, backends, collector));
        spent += std::max<VirtualMs>(shard.records.back().cost, 1);
    }
    CampaignResult result =
        mergeShardResults({std::move(shard)}, config, fuzzer.name());
    result.regressions = std::move(regressions);
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
