/**
 * @file
 * Reproduces Table 3 and the §5.4 bug study: a long NNSmith campaign
 * against all three backends, counting discovered seeded defects per
 * system x phase and crash-vs-semantic, against the ground-truth table
 * of 72 transcribed bugs. Also reproduces the 4-hour comparison:
 * unique crashes found by NNSmith vs LEMON vs GraphFuzzer per backend
 * (paper: 38 ORT / 13 TVM for NNSmith; 0 for LEMON; 1+1 for
 * GraphFuzzer).
 */
#include <map>

#include "bench_util.h"

int
main(int argc, char** argv)
{
    using namespace nnsmith::bench;
    using nnsmith::backends::DefectRegistry;
    using nnsmith::backends::Phase;
    using nnsmith::backends::Symptom;
    using nnsmith::backends::System;
    const BenchOptions options = parseArgs(argc, argv);
    const size_t iters = options.iters * 4; // bug hunt runs longer

    std::printf("== Table 3: bug distribution ==\n");

    // ---- long NNSmith campaign over all backends ----------------------
    nnsmith::fuzz::CampaignConfig config;
    // The bug hunt is iteration-bounded (the paper's bugs accumulated
    // over months, not one 4-hour window); give it a week of virtual
    // time so the iteration cap is what stops it.
    config.virtualBudget = 7ll * 24 * 60 * 60 * 1000;
    config.maxIterations = iters;
    config.coverageComponent = "";
    config.sampleEveryMinutes = 24 * 60;
    auto parallel = shardedCampaign(options, config);
    parallel.fuzzerFactory = [](uint64_t seed) {
        return makeFuzzer("NNSmith", seed);
    };
    parallel.backendFactory = [] {
        return nnsmith::difftest::makeAllBackends();
    };
    const auto campaign = nnsmith::fuzz::runParallelCampaign(parallel);

    // ---- Table 3 matrix ------------------------------------------------
    const auto& registry = DefectRegistry::instance();
    std::map<std::pair<System, Phase>, std::pair<int, int>> cell;
    int found_crash = 0, found_semantic = 0;
    int seeded_crash = 0, seeded_semantic = 0;
    for (const auto& defect : registry.all()) {
        auto& [seeded, found] = cell[{defect.system, defect.phase}];
        ++seeded;
        (defect.symptom == Symptom::kCrash ? seeded_crash
                                           : seeded_semantic) += 1;
        if (campaign.defectsFound.count(defect.id)) {
            ++found;
            (defect.symptom == Symptom::kCrash ? found_crash
                                               : found_semantic) += 1;
        }
    }
    std::printf("\n(found/seeded after %zu models; the paper's 72 bugs "
                "accumulated over 7 months)\n", campaign.iterations);
    std::printf("%-18s %16s %14s %14s %9s\n", "", "Transformation",
                "Conversion", "Unclassified", "Total");
    const System systems[] = {System::kOrtLite, System::kTvmLite,
                              System::kTrtLite, System::kExporter};
    for (System system : systems) {
        int row_found = 0, row_seeded = 0;
        std::string row = "";
        for (Phase phase : {Phase::kTransformation, Phase::kConversion,
                            Phase::kUnclassified}) {
            const auto it = cell.find({system, phase});
            const int seeded = it == cell.end() ? 0 : it->second.first;
            const int found = it == cell.end() ? 0 : it->second.second;
            row_found += found;
            row_seeded += seeded;
            char buf[32];
            std::snprintf(buf, sizeof buf, "%d/%d", found, seeded);
            char padded[32];
            std::snprintf(padded, sizeof padded, "%14s", buf);
            row += padded;
        }
        std::printf("%-18s %s %4d/%d\n",
                    nnsmith::backends::systemName(system).c_str(),
                    row.c_str() + 0, row_found, row_seeded);
    }
    std::printf("%-18s crash %d/%d, semantic %d/%d (paper: 55 crash / "
                "17 semantic)\n", "Symptoms:", found_crash, seeded_crash,
                found_semantic, seeded_semantic);

    // ---- §5.4: 4-hour unique-crash comparison per fuzzer ---------------
    std::printf("\n== §5.4: unique crashes in a 4-hour window ==\n");
    std::printf("%-14s %14s %10s\n", "fuzzer", "ONNXRuntime", "TVM");
    for (const char* name : {"NNSmith", "GraphFuzzer", "LEMON"}) {
        std::map<std::string, std::set<std::string>> crashes;
        for (const auto& sut : coverageSystems()) {
            const auto result = runOne(name, sut, options,
                                       iterCapFor(name, options.iters));
            for (const auto& [key, bug] : result.bugs) {
                if (bug.kind == "crash")
                    crashes[sut.label].insert(bug.dedupKey);
            }
        }
        std::printf("%-14s %14zu %10zu\n", name,
                    crashes["ONNXRuntime"].size(), crashes["TVM"].size());
    }
    std::printf("(paper: NNSmith 38/13, GraphFuzzer 1/1, LEMON 0/0 — "
                "shape: NNSmith >> GraphFuzzer ~ 1 >> LEMON = 0)\n");
    return 0;
}
