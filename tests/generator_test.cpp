/**
 * The paper's core validity claim (§3.2): every generated model type
 * checks. These are property tests over many random generations.
 */
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "exec/interpreter.h"
#include "gen/binning.h"
#include "gen/generator.h"
#include "graph/validate.h"
#include "ops/nn_ops.h"

namespace nnsmith::gen {
namespace {

using graph::NodeKind;

GeneratorConfig
smallConfig(int nodes = 6)
{
    GeneratorConfig config;
    config.targetOpNodes = nodes;
    return config;
}

TEST(Generator, ProducesRequestedSize)
{
    GraphGenerator gen(smallConfig(8), 7);
    const auto model = gen.generate();
    ASSERT_TRUE(model.has_value());
    EXPECT_GE(model->graph.numOpNodes(), 1);
    EXPECT_LE(model->graph.numOpNodes(), 8);
}

TEST(Generator, EveryModelTypeChecks)
{
    // The headline property: valid-by-construction generation.
    int generated = 0;
    for (uint64_t seed = 0; seed < 25; ++seed) {
        GraphGenerator gen(smallConfig(6), 1000 + seed);
        const auto model = gen.generate();
        if (!model)
            continue;
        ++generated;
        const auto result = graph::validate(model->graph);
        EXPECT_TRUE(result.ok())
            << "seed " << seed << ": " << result.summary() << "\n"
            << model->graph.toString();
    }
    EXPECT_GE(generated, 20);
}

TEST(Generator, ModelsAreConnected)
{
    for (uint64_t seed = 0; seed < 10; ++seed) {
        GraphGenerator gen(smallConfig(6), 2000 + seed);
        const auto model = gen.generate();
        if (!model)
            continue;
        EXPECT_TRUE(graph::isConnected(model->graph)) << "seed " << seed;
    }
}

TEST(Generator, ModelsExecuteEndToEnd)
{
    Rng rng(5);
    for (uint64_t seed = 0; seed < 10; ++seed) {
        GraphGenerator gen(smallConfig(5), 3000 + seed);
        const auto model = gen.generate();
        if (!model)
            continue;
        const auto leaves = exec::randomLeaves(model->graph, rng);
        // Must not throw; NaN/Inf is allowed (that is Algorithm 3's
        // job), but shapes and dtypes must all line up.
        const auto result = exec::execute(model->graph, leaves);
        EXPECT_EQ(result.outputs.size(),
                  model->graph.outputValues().size());
    }
}

TEST(Generator, AtLeastOneInputAfterPromotion)
{
    for (uint64_t seed = 0; seed < 10; ++seed) {
        GraphGenerator gen(smallConfig(5), 4000 + seed);
        const auto model = gen.generate();
        if (!model)
            continue;
        EXPECT_FALSE(model->graph.inputValues().empty());
        EXPECT_TRUE(model->graph.placeholderValues().empty());
    }
}

TEST(Generator, DeterministicForFixedSeed)
{
    GraphGenerator a(smallConfig(6), 42);
    GraphGenerator b(smallConfig(6), 42);
    const auto ma = a.generate();
    const auto mb = b.generate();
    ASSERT_EQ(ma.has_value(), mb.has_value());
    if (ma) {
        EXPECT_EQ(ma->graph.toString(), mb->graph.toString());
    }
}

TEST(Generator, PureFunctionOfSeed)
{
    // A generated graph depends on its seed alone: nothing a solver
    // learned while generating one model may leak into the next (each
    // generate() solves in a fresh solver context). Generation order
    // and the generating thread must not matter.
    constexpr uint64_t kSeeds = 200;
    constexpr size_t kThreads = 4;
    GeneratorConfig config; // the paper's: z3 when built in, k=7, 10 ops
    const auto render = [&config](uint64_t seed) {
        const auto model = GraphGenerator(config, seed).generate();
        return model ? model->graph.toString() : std::string("<none>");
    };

    std::vector<std::string> forward(kSeeds);
    for (uint64_t seed = 0; seed < kSeeds; ++seed)
        forward[seed] = render(seed);

    std::vector<std::string> reverse(kSeeds);
    for (uint64_t seed = kSeeds; seed-- > 0;)
        reverse[seed] = render(seed);

    std::vector<std::string> threaded(kSeeds);
    std::vector<std::thread> workers;
    for (size_t t = 0; t < kThreads; ++t) {
        workers.emplace_back([&threaded, &render, t] {
            for (uint64_t seed = t; seed < kSeeds; seed += kThreads)
                threaded[seed] = render(seed);
        });
    }
    for (auto& worker : workers)
        worker.join();

    for (uint64_t seed = 0; seed < kSeeds; ++seed) {
        EXPECT_EQ(forward[seed], reverse[seed]) << "seed " << seed;
        EXPECT_EQ(forward[seed], threaded[seed]) << "seed " << seed;
    }
}

TEST(Generator, DifferentSeedsDiversify)
{
    std::set<std::string> renderings;
    for (uint64_t seed = 0; seed < 8; ++seed) {
        GraphGenerator gen(smallConfig(5), 5000 + seed);
        const auto model = gen.generate();
        if (model)
            renderings.insert(model->graph.toString());
    }
    EXPECT_GE(renderings.size(), 6u);
}

TEST(Generator, AllowlistRestrictsOperators)
{
    GeneratorConfig config = smallConfig(5);
    config.opAllowlist = {"Relu", "Add", "Sigmoid"};
    GraphGenerator gen(config, 11);
    const auto model = gen.generate();
    ASSERT_TRUE(model.has_value());
    for (const auto& node : model->graph.nodes()) {
        if (node.dead || node.kind != NodeKind::kOp)
            continue;
        const std::string name = node.op->name();
        EXPECT_TRUE(name == "Relu" || name == "Add" || name == "Sigmoid")
            << name;
    }
    EXPECT_THROW(GraphGenerator(GeneratorConfig{.opAllowlist = {"Nope"}}, 1),
                 FatalError);
}

TEST(Generator, DimCapsRespected)
{
    GeneratorConfig config = smallConfig(6);
    for (uint64_t seed = 0; seed < 6; ++seed) {
        GraphGenerator gen(config, 6000 + seed);
        const auto model = gen.generate();
        if (!model)
            continue;
        for (const auto& v : model->graph.values()) {
            if (model->graph.node(v.producer).dead)
                continue;
            const auto shape = v.type.concreteShape();
            for (int64_t d : shape.dims)
                EXPECT_GE(d, 1);
            // Leaf dims obey the per-rank caps (op outputs too).
            if (model->graph.node(v.producer).kind != NodeKind::kOp) {
                for (int64_t d : shape.dims)
                    EXPECT_LE(d, config.dimCapForRank(shape.rank()));
            }
        }
    }
}

/** Expects every pooling attribute of @p model to be at most @p cap;
 *  returns the number of pooling nodes checked. */
int
expectPoolAttrsCapped(const GeneratedModel& model, int64_t cap,
                      uint64_t seed)
{
    int pools = 0;
    for (const auto& node : model.graph.nodes()) {
        if (node.dead ||
            dynamic_cast<const ops::Pool2dOp*>(node.op.get()) == nullptr)
            continue;
        ++pools;
        for (const auto& attr : node.op->attrs())
            EXPECT_LE(attr.value, cap) << "seed " << seed << ": "
                                       << node.op->name() << " "
                                       << attr.name;
    }
    return pools;
}

TEST(Generator, NativeSeed1003PoolWindowIsCapped)
{
    // The native solver once emitted MaxPool2d{kh=997830, kw=997830,
    // stride=187550, pad=498915} here: running it walks ~10^12 window
    // elements, so the check reads the attributes and never executes.
    GeneratorConfig config;
    config.solverKind = solver::SolverKind::kNative;
    const auto model = GraphGenerator(config, 1003).generate();
    ASSERT_TRUE(model.has_value());
    EXPECT_GT(expectPoolAttrsCapped(*model, config.dimCapForRank(4), 1003),
              0);
}

TEST(Generator, NativePoolAttributesStayWithinCap)
{
    GeneratorConfig config;
    config.solverKind = solver::SolverKind::kNative;
    int pools = 0;
    for (uint64_t seed = 0; seed < 500; ++seed) {
        const auto model = GraphGenerator(config, seed).generate();
        if (model)
            pools +=
                expectPoolAttrsCapped(*model, config.dimCapForRank(4), seed);
    }
    EXPECT_GT(pools, 0);
}

TEST(Generator, InstanceKeysCoverEveryOpNode)
{
    GraphGenerator gen(smallConfig(6), 77);
    const auto model = gen.generate();
    ASSERT_TRUE(model.has_value());
    EXPECT_EQ(static_cast<int>(model->instanceKeys().size()),
              model->graph.numOpNodes());
}

TEST(Binning, SampleFromBinRespectsRanges)
{
    Rng rng(3);
    for (int k = 2; k <= 7; ++k) {
        for (int i = 1; i <= k; ++i) {
            const auto range = sampleFromBin(rng, i, k);
            EXPECT_LE(range.lo, range.hi);
            if (i < k) {
                EXPECT_GE(range.lo, (1 << (i - 1)) / 2);
                EXPECT_LE(range.hi, 1 << i);
            } else {
                EXPECT_EQ(range.lo, 1 << (k - 1));
            }
        }
    }
}

TEST(Binning, DiversifiesAttributeValues)
{
    // Without binning Z3-style solvers return boundary models; with
    // binning the attribute distribution must spread out.
    auto count_distinct = [](bool binning) {
        std::set<int64_t> dims;
        for (uint64_t seed = 0; seed < 12; ++seed) {
            GeneratorConfig config;
            config.targetOpNodes = 4;
            config.enableBinning = binning;
            GraphGenerator gen(config, 9000 + seed);
            const auto model = gen.generate();
            if (!model)
                continue;
            for (const auto& v : model->graph.values()) {
                if (model->graph.node(v.producer).dead)
                    continue;
                for (int64_t d : v.type.concreteShape().dims)
                    dims.insert(d);
            }
        }
        return dims.size();
    };
    EXPECT_GT(count_distinct(true), count_distinct(false));
}

TEST(Binning, DropHalfConvergesOnUnsat)
{
    symbolic::SymbolTable st;
    const auto x = st.fresh("x");
    auto solver = solver::makeSolver(solver::SolverKind::kAuto, 1);
    ASSERT_TRUE(solver->tryAdd({symbolic::eq(x, 5)}));
    Rng rng(2);
    // Contradictory binning constraints must be dropped, not wedged.
    std::vector<symbolic::Pred> cb = {symbolic::ge(x, 100),
                                      symbolic::le(x, 200)};
    const size_t kept = applyBinning(*solver, cb, rng);
    EXPECT_EQ(kept, 0u);
    EXPECT_TRUE(solver->check());
}

} // namespace
} // namespace nnsmith::gen
