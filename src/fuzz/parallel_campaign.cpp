#include "fuzz/parallel_campaign.h"

#include <algorithm>

#include "backends/defects.h"
#include "fuzz/mutator.h"
#include "fuzz/wire.h"
#include "fuzz/worker_runtime.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "reduce/reducer.h"
#include "reduce/report.h"
#include "support/logging.h"

namespace nnsmith::fuzz {

using coverage::CoverageRegistry;

uint64_t
deriveIterationSeed(uint64_t master_seed, uint64_t index)
{
    // SplitMix64 over a golden-ratio stride: adjacent indexes land in
    // statistically independent positions of the stream, and the
    // result depends only on (master_seed, index).
    uint64_t z = master_seed + 0x9E3779B97F4A7C15ull * (index + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

ShardResult::IterationRecord
captureIteration(Fuzzer& fuzzer, size_t index, const CampaignConfig& config,
                 const std::vector<backends::Backend*>& backend_list,
                 coverage::CoverageCollector& collector)
{
    IterationOutcome outcome = fuzzer.iterate(backend_list);
    ShardResult::IterationRecord record;
    record.index = index;
    record.cost = outcome.cost;
    record.produced = outcome.produced;
    record.instanceKeys = std::move(outcome.instanceKeys);
    const auto hits = collector.take();
    fuzzer.observeCoverage(hits);
    record.hits = wire::hitsToWire(hits);
    obs::counterAdd("campaign.iterations");
    if (record.produced)
        obs::counterAdd("campaign.produced");
    if (!outcome.bugs.empty()) {
        obs::counterAdd("campaign.bugs.flagged", outcome.bugs.size());
        if (config.minimize) {
            // Minimize inside the shard: ddmin is a pure function of
            // the flagged case, so the merge stays shard-count
            // invariant, and the reduction parallelizes with the
            // campaign itself.
            reduce::minimizeBugs(outcome.bugs, backend_list);
        }
        backends::DefectRegistry::TraceScope trace_scope;
        record.bugs.reserve(outcome.bugs.size());
        for (const auto& bug : outcome.bugs)
            record.bugs.push_back(wire::encodeBug(bug));
        collector.take(); // drop oracle re-run + export render hits
    }
    return record;
}

CampaignResult
mergeShardResults(const std::vector<ShardResult>& shards,
                  const CampaignConfig& config,
                  const std::string& fuzzer_name)
{
    // Index the records by global iteration number. Any permutation of
    // the shard vector produces the same table, which is what makes
    // the merge order-independent.
    size_t end = 0;
    for (const auto& shard : shards)
        for (const auto& record : shard.records)
            end = std::max(end, record.index + 1);
    std::vector<const ShardResult::IterationRecord*> by_index(end, nullptr);
    for (const auto& shard : shards) {
        for (const auto& record : shard.records) {
            NNSMITH_ASSERT(by_index[record.index] == nullptr,
                           "duplicate iteration record ", record.index);
            by_index[record.index] = &record;
        }
    }

    auto& registry = CoverageRegistry::instance();
    CampaignResult result;
    result.fuzzer = fuzzer_name;
    VirtualClock clock;
    double next_sample = 0.0;

    // The one campaign loop: the virtual clock, budget and cap checks,
    // sample cadence and converged-plateau fast-forward live here and
    // nowhere else. Coverage counts come from the per-iteration hit
    // deltas. Records arrive in wire format regardless of the
    // producer: hit site keys and range runs are interned into *this*
    // process's registry and bug documents parsed back through the
    // corpus machinery, so serial, thread and process records merge
    // identically.
    auto take_sample = [&]() {
        CampaignPoint point;
        point.minutes = clock.minutes();
        point.iterations = result.iterations;
        point.coverageAll = result.coverAll.count();
        point.coveragePass = result.coverPass.count();
        result.series.push_back(point);
    };
    take_sample();
    next_sample = config.sampleEveryMinutes;

    std::vector<uint8_t> seen; ///< by BranchId: hit by an earlier record
    std::vector<coverage::BranchId> fresh;
    for (size_t index = 0; index < end; ++index) {
        if (clock.now() >= config.virtualBudget ||
            result.iterations >= config.maxIterations)
            break; // speculative records past the cutoff are discarded
        const auto* record = by_index[index];
        if (record == nullptr)
            break; // a shard stopped here; nothing later can count
        ++result.iterations;
        result.produced += record->produced ? 1 : 0;
        clock.advance(std::max<VirtualMs>(record->cost, 1));
        for (const auto& encoded : record->bugs) {
            BugRecord bug = wire::decodeBug(encoded);
            for (const auto& defect : bug.defects)
                result.defectsFound.insert(defect);
            result.bugs.emplace(bug.dedupKey, std::move(bug));
        }
        for (const auto& key : record->instanceKeys)
            result.instanceKeys.insert(key);
        // Only a site's first sighting can change the coverage maps,
        // so each site is classified (component, pass tag) once.
        fresh.clear();
        for (const auto id : wire::hitsFromWire(record->hits)) {
            if (id >= seen.size())
                seen.resize(id + 1, 0);
            if (seen[id] == 0) {
                seen[id] = 1;
                fresh.push_back(id);
            }
        }
        const auto infos = registry.describeSites(fresh);
        for (size_t i = 0; i < fresh.size(); ++i) {
            if (infos[i].component.rfind(config.coverageComponent, 0) != 0)
                continue;
            result.coverAll.add(fresh[i]);
            if (infos[i].passOnly)
                result.coverPass.add(fresh[i]);
        }
        while (clock.minutes() >= next_sample) {
            take_sample();
            result.series.back().minutes = next_sample;
            next_sample += config.sampleEveryMinutes;
        }
    }
    result.activeTime = clock.now();
    // Past the iteration cap coverage cannot grow, so the remaining
    // samples hold the converged value (bounded for huge budgets).
    while (clock.now() < config.virtualBudget &&
           result.series.size() < 4096) {
        clock.advance(
            static_cast<VirtualMs>(config.sampleEveryMinutes) * 60 * 1000);
        take_sample();
        result.series.back().minutes = next_sample;
        next_sample += config.sampleEveryMinutes;
    }
    take_sample();
    result.virtualTime = clock.now();
    return result;
}

CampaignResult
runParallelCampaign(const ParallelCampaignConfig& config)
{
    NNSMITH_ASSERT(config.shards >= 1, "shards must be >= 1, got ",
                   config.shards);
    NNSMITH_ASSERT(config.blockIterations >= 1,
                   "blockIterations must be >= 1");
    if (!config.fuzzerFactory || !config.backendFactory)
        fatal("runParallelCampaign: fuzzerFactory and backendFactory "
              "must both be set");

    corpus::ReplayResult regressions;
    if (!config.campaign.corpusDir.empty()) {
        // Replay the regression corpus once, on the coordinator,
        // before any shard fuzzes — the scratch collector captures
        // both backend construction and replay's oracle runs, so the
        // merged campaign result is unchanged by --corpus and stays
        // byte-identical for any shard count.
        coverage::CoverageCollector scratch;
        auto owned = config.backendFactory();
        std::vector<backends::Backend*> backend_list;
        backend_list.reserve(owned.size());
        for (auto& backend : owned)
            backend_list.push_back(backend.get());
        regressions =
            replayCampaignCorpus(config.campaign.corpusDir, backend_list);
    }

    ParallelCampaignConfig effective = config;
    if (config.campaign.corpusGuided) {
        if (config.campaign.corpusDir.empty())
            fatal("runParallelCampaign: corpusGuided requires corpusDir");
        // Parse the corpus once, here on the coordinator (so the
        // immutable pool pre-exists process workers' fork()), and wrap
        // the factory: each derived iteration seed gets its own
        // CorpusGuidedFuzzer over the shared read-only pool, keeping
        // iterations independent and the merge byte-identical.
        auto pool = std::make_shared<const MutationPool>(
            MutationPool::fromCorpusDir(config.campaign.corpusDir));
        const auto inner = config.fuzzerFactory;
        effective.fuzzerFactory = [inner, pool](uint64_t seed) {
            return std::make_unique<CorpusGuidedFuzzer>(inner(seed), pool,
                                                        seed);
        };
    }

    // Telemetry enablement follows the process-global flags even when
    // the driver never wired the config fields: --metrics-out must
    // collect from process workers and --progress must render in every
    // campaign driver, not just those that set them explicitly.
    if (effective.progress == nullptr && obs::progressRequested())
        effective.progress = std::make_shared<obs::ProgressAggregator>();
    effective.telemetry = config.telemetry || obs::metricsEnabled() ||
                          effective.progress != nullptr;
    const auto progress = effective.progress;

    // Execute the rounds on the configured worker runtime — threads or
    // forked processes; the wire-format shard results merge the same
    // either way.
    const auto runtime = makeWorkerRuntime(effective.workerMode);
    if (progress != nullptr)
        progress->attach(config.shards, runtime->name());
    std::vector<ShardResult> results;
    try {
        results = runtime->runShards(effective);
    } catch (...) {
        if (progress != nullptr)
            progress->finish(); // unstick the \r line first
        throw;
    }
    if (progress != nullptr)
        progress->finish();

    const auto probe =
        effective.fuzzerFactory(deriveIterationSeed(config.masterSeed, 0));
    CampaignResult merged =
        mergeShardResults(results, config.campaign, probe->name());
    merged.regressions = std::move(regressions);
    // Fault telemetry rides alongside the merge, never through it:
    // workerFaults and respawns describe the run, not the result.
    for (auto& shard : results) {
        for (auto& fault : shard.faults) {
            if (fault.kind == "crash")
                ++merged.respawns;
            merged.workerFaults.push_back(std::move(fault));
        }
    }
    if (!config.campaign.reportDir.empty())
        reduce::writeReproReports(merged.bugs, config.campaign.reportDir);
    return merged;
}

} // namespace nnsmith::fuzz
