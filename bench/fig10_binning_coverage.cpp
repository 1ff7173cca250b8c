/**
 * @file
 * Reproduces Figure 10: impact of attribute binning on coverage —
 * Venn of branch sets with binning on vs off, per system. Expected
 * shape: small *total* gain (paper: <= 2.3%) but a clearly larger
 * *unique* region for the binning configuration (paper: 2.2x on
 * ONNXRuntime, 1.8x on TVM) — binning targets hard-to-hit branches.
 */
#include "bench_util.h"

namespace {

nnsmith::fuzz::CampaignResult
runBinning(const nnsmith::bench::SystemUnderTest& sut,
           const nnsmith::bench::BenchOptions& options, bool binning)
{
    nnsmith::fuzz::CampaignConfig config;
    config.virtualBudget =
        static_cast<nnsmith::VirtualMs>(options.minutes) * 60 * 1000;
    config.maxIterations = options.iters;
    config.coverageComponent = sut.component;
    auto parallel = nnsmith::bench::shardedCampaign(options, config);
    parallel.fuzzerFactory = [binning](uint64_t seed) {
        nnsmith::fuzz::NNSmithFuzzer::Options fopts;
        fopts.generator.targetOpNodes = 10;
        fopts.generator.enableBinning = binning;
        fopts.search.timeBudgetMs = 8.0;
        return std::make_unique<nnsmith::fuzz::NNSmithFuzzer>(fopts, seed);
    };
    parallel.backendFactory = [index = static_cast<size_t>(
                                   sut.backendIndex)] {
        auto owned = nnsmith::difftest::makeAllBackends();
        std::vector<std::unique_ptr<nnsmith::backends::Backend>> picked;
        picked.push_back(std::move(owned[index]));
        return picked;
    };
    auto result = nnsmith::fuzz::runParallelCampaign(parallel);
    result.fuzzer = binning ? "w/ binning" : "no binning";
    return result;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace nnsmith::bench;
    const BenchOptions options = parseArgs(argc, argv);
    std::printf("== Figure 10: impact of attribute binning ==\n");

    for (const auto& sut : coverageSystems()) {
        const auto with = runBinning(sut, options, true);
        const auto without = runBinning(sut, options, false);
        const auto unique_with = with.coverAll.minus(without.coverAll);
        const auto unique_without = without.coverAll.minus(with.coverAll);
        std::printf("\n%s: w/ binning=%zu, no binning=%zu | "
                    "unique(w/)=%zu unique(no)=%zu common=%zu\n",
                    sut.label, with.coverAll.count(),
                    without.coverAll.count(), unique_with.count(),
                    unique_without.count(),
                    with.coverAll.intersect(without.coverAll).count());
        std::printf("  unique ratio %.1fx; total gain %+.1f%% (paper: "
                    "big unique gain, small total gain)\n",
                    static_cast<double>(unique_with.count()) /
                        static_cast<double>(std::max<size_t>(
                            unique_without.count(), 1)),
                    100.0 * (static_cast<double>(with.coverAll.count()) /
                                 static_cast<double>(std::max<size_t>(
                                     without.coverAll.count(), 1)) -
                             1.0));
    }
    return 0;
}
