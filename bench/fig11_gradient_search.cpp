/**
 * @file
 * Reproduces Figure 11: effectiveness of gradient-based value search.
 * Three methods (Sampling / Gradient / Gradient+ProxyDeriv) on three
 * model-size groups (10/20/30 nodes, each containing at least one
 * vulnerable operator), swept over per-model time budgets i*8ms. The
 * budgets are virtual (autodiff/grad_search.h: each iteration charges
 * a fixed cost per op node), so the success table is a pure function
 * of --seed and --iters.
 * Expected shape: success rate ordering Proxy >= Gradient > Sampling,
 * with the gap growing with model size; plus the §3.3 headline
 * statistics (random-init NaN/Inf rate, ~98% success, search time a
 * small fraction of generation time).
 */
#include <chrono>

#include "autodiff/grad_search.h"
#include "bench_util.h"
#include "gen/generator.h"

namespace {

using nnsmith::Rng;
using nnsmith::autodiff::SearchConfig;
using nnsmith::autodiff::SearchMethod;

/** Generate @p count models of @p nodes ops with >= 1 vulnerable op. */
std::vector<nnsmith::graph::Graph>
makeGroup(int nodes, size_t count, uint64_t seed, double* gen_ms_out)
{
    std::vector<nnsmith::graph::Graph> graphs;
    const auto t0 = std::chrono::steady_clock::now();
    uint64_t s = seed;
    while (graphs.size() < count && s < seed + count * 60) {
        nnsmith::gen::GeneratorConfig config;
        config.targetOpNodes = nodes;
        nnsmith::gen::GraphGenerator generator(config, s++);
        auto model = generator.generate();
        if (!model)
            continue;
        bool vulnerable = false;
        for (const auto& node : model->graph.nodes()) {
            if (!node.dead && node.kind == nnsmith::graph::NodeKind::kOp &&
                nnsmith::autodiff::isVulnerableOp(node.op->name()))
                vulnerable = true;
        }
        if (!vulnerable)
            continue;
        graphs.push_back(std::move(model->graph));
    }
    *gen_ms_out = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count() /
                  static_cast<double>(std::max<size_t>(graphs.size(), 1));
    return graphs;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace nnsmith::bench;
    const BenchOptions options = parseArgs(argc, argv);
    const size_t group_size = std::max<size_t>(options.iters / 12, 24);

    std::printf("== Figure 11: gradient-based value search ==\n");
    std::printf("(%zu models per size group; paper uses 512)\n\n",
                group_size);

    // Generation is a pure function of the seed, so each size group is
    // built once and shared by the preamble and every method's sweep.
    struct Group {
        int nodes;
        double genMs;
        std::vector<nnsmith::graph::Graph> graphs;
    };
    std::vector<Group> groups;
    for (const int nodes : {10, 20, 30}) {
        double gen_ms = 0.0;
        auto graphs =
            makeGroup(nodes, group_size, options.seed + nodes, &gen_ms);
        groups.push_back({nodes, gen_ms, std::move(graphs)});
    }

    // §3.3 preamble: NaN/Inf rate under random initialization.
    std::printf("-- random-init NaN/Inf rate (paper: 56.8%% at 20 nodes) "
                "--\n");
    for (const auto& group : groups) {
        Rng rng(options.seed);
        size_t invalid = 0;
        for (const auto& g : group.graphs) {
            const auto leaves = nnsmith::exec::randomLeaves(g, rng);
            invalid += !nnsmith::exec::execute(g, leaves)
                            .numericallyValid();
        }
        std::printf("  %2d nodes: %.1f%% invalid at random init "
                    "(gen %.1f ms/model)\n",
                    group.nodes,
                    100.0 * static_cast<double>(invalid) /
                        static_cast<double>(std::max<size_t>(
                            group.graphs.size(), 1)),
                    group.genMs);
    }

    std::printf("\n-- success rate vs virtual budget "
                "(avg virtual ms spent) --\n");
    std::printf("%-26s %6s %10s %12s %10s\n", "method", "nodes",
                "budget(ms)", "success", "avg ms");
    const SearchMethod methods[] = {SearchMethod::kGradientProxy,
                                    SearchMethod::kGradient,
                                    SearchMethod::kSampling};
    for (const auto method : methods) {
        for (const auto& group : groups) {
            for (int budget : {8, 16, 32, 64}) {
                Rng rng(options.seed + budget);
                size_t success = 0;
                double total_ms = 0.0;
                for (const auto& g : group.graphs) {
                    SearchConfig config;
                    config.method = method;
                    config.timeBudgetMs = budget;
                    const auto result =
                        nnsmith::autodiff::search(g, rng, config);
                    success += result.success;
                    total_ms += result.elapsedMs;
                }
                const double n =
                    static_cast<double>(std::max<size_t>(
                        group.graphs.size(), 1));
                std::printf("%-26s %6d %10d %11.1f%% %10.2f\n",
                            searchMethodName(method).c_str(), group.nodes,
                            budget,
                            100.0 * static_cast<double>(success) / n,
                            total_ms / n);
            }
        }
    }
    std::printf("\n(paper: full gradient search reaches ~98%% success; "
                "search time ~4%% of generation time)\n");
    return 0;
}
