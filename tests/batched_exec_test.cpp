/**
 * Property tests for batched case execution (exec/batched.h and the
 * layers above it): lane l of a batch must be bit-identical — values,
 * poison flags, firstInvalidNode, oracle verdicts, fuzzer outcomes —
 * to running lane l as its own sequential case. Exercised over
 * generated graphs (fresh random inputs per lane) and hand-built
 * graphs with poisoned / NaN lanes, at batch sizes up to 16.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "baselines/concrete_builder.h"
#include "campaign_fixture.h"
#include "corpus/corpus.h"
#include "corpus/parser.h"
#include "difftest/oracle.h"
#include "exec/batched.h"
#include "fuzz/fuzzer.h"
#include "gen/generator.h"

namespace nnsmith {
namespace {

using baselines::addInput;
using baselines::appendBinary;
using graph::Graph;
using ops::BinaryKind;
using tensor::DType;
using tensor::Shape;
using tensor::Tensor;

gen::GeneratorConfig
smallConfig(int nodes = 6)
{
    gen::GeneratorConfig config;
    config.targetOpNodes = nodes;
    return config;
}

/** Bit-identical: stored bytes (equals is NaN-aware) AND poison. */
void
expectSameTensor(const Tensor& a, const Tensor& b)
{
    EXPECT_TRUE(a.equals(b));
    EXPECT_EQ(a.poisoned(), b.poisoned());
}

void
expectSameResult(const exec::ExecResult& batched,
                 const exec::ExecResult& sequential)
{
    EXPECT_EQ(batched.firstInvalidNode, sequential.firstInvalidNode);
    ASSERT_EQ(batched.values.size(), sequential.values.size());
    for (const auto& [v, tensor] : sequential.values) {
        const auto it = batched.values.find(v);
        ASSERT_NE(it, batched.values.end()) << "value " << v;
        expectSameTensor(it->second, tensor);
    }
    ASSERT_EQ(batched.outputs.size(), sequential.outputs.size());
    for (size_t i = 0; i < sequential.outputs.size(); ++i)
        expectSameTensor(batched.outputs[i], sequential.outputs[i]);
}

TEST(BatchedExec, MatchesSequentialOnGeneratedGraphs)
{
    Rng rng(11);
    int checked = 0;
    for (uint64_t seed = 0; seed < 8; ++seed) {
        gen::GraphGenerator gen(smallConfig(6), 6000 + seed);
        const auto model = gen.generate();
        if (!model)
            continue;
        for (const size_t batch : {size_t{1}, size_t{2}, size_t{5},
                                   size_t{16}}) {
            std::vector<exec::LeafValues> lanes;
            for (size_t l = 0; l < batch; ++l)
                lanes.push_back(exec::randomLeaves(model->graph, rng));
            const auto batched =
                exec::executeBatched(model->graph, lanes);
            ASSERT_EQ(batched.size(), batch);
            for (size_t l = 0; l < batch; ++l) {
                const auto sequential =
                    exec::execute(model->graph, lanes[l]);
                expectSameResult(batched[l], sequential);
            }
            ++checked;
        }
    }
    EXPECT_GE(checked, 12);
}

TEST(BatchedExec, MatchesSequentialOnGoldenCorpusGraphs)
{
    // Graphs that actually flagged bugs (the committed golden corpus)
    // are the adversarial half of the property: they reach the
    // broadcast / reduce / poison corners the fresh generator hits
    // only occasionally. Lane 0 replays the recorded repro leaves;
    // the other lanes get fresh random inputs for the same graph.
    const auto dir =
        (std::filesystem::path(NNSMITH_TEST_DATA_DIR) / "corpus")
            .string();
    Rng rng(17);
    int checked = 0;
    for (const auto& entry : corpus::loadCorpusIndex(dir)) {
        const auto bug = corpus::parseRepro(corpus::readCorpusFile(
            (std::filesystem::path(dir) / entry.file).string()));
        const graph::Graph* graph = nullptr;
        const exec::LeafValues* recorded = nullptr;
        if (bug.graphRepro) {
            graph = &bug.graphRepro->graph;
            recorded = &bug.graphRepro->leaves;
        } else if (bug.graphSeqRepro) {
            graph = &bug.graphSeqRepro->graph;
            recorded = &bug.graphSeqRepro->leaves;
        } else {
            continue; // TIR-only repro: no graph to batch
        }
        for (const size_t batch : {size_t{2}, size_t{16}}) {
            std::vector<exec::LeafValues> lanes;
            lanes.push_back(*recorded);
            for (size_t l = 1; l < batch; ++l)
                lanes.push_back(exec::randomLeaves(*graph, rng));
            const auto batched = exec::executeBatched(*graph, lanes);
            ASSERT_EQ(batched.size(), batch);
            for (size_t l = 0; l < batch; ++l)
                expectSameResult(batched[l],
                                 exec::execute(*graph, lanes[l]));
        }
        ++checked;
    }
    // The committed corpus carries >= 5 graph-bearing repros; if this
    // drops to zero the test is silently vacuous.
    EXPECT_GE(checked, 5);
}

TEST(BatchedExec, PoisonIsTrackedPerLane)
{
    Graph graph;
    const int a = addInput(graph, DType::kI32, Shape{{2}});
    const int b = addInput(graph, DType::kI32, Shape{{2}});
    appendBinary(graph, BinaryKind::kDiv, a, b);

    // Lane 1 divides by zero (poison); lanes 0 and 2 are clean. The
    // poison must land in lane 1's result only — a shared flag across
    // the batch sweep would contaminate its neighbors.
    std::vector<exec::LeafValues> lanes(3);
    lanes[0].emplace(a, Tensor::fromVector<int32_t>({8, 9}));
    lanes[0].emplace(b, Tensor::fromVector<int32_t>({2, 3}));
    lanes[1].emplace(a, Tensor::fromVector<int32_t>({8, 9}));
    lanes[1].emplace(b, Tensor::fromVector<int32_t>({2, 0}));
    lanes[2].emplace(a, Tensor::fromVector<int32_t>({1, 2}));
    lanes[2].emplace(b, Tensor::fromVector<int32_t>({3, 4}));

    const auto batched = exec::executeBatched(graph, lanes);
    ASSERT_EQ(batched.size(), 3u);
    EXPECT_TRUE(batched[0].numericallyValid());
    EXPECT_FALSE(batched[1].numericallyValid());
    EXPECT_TRUE(batched[2].numericallyValid());
    for (size_t l = 0; l < lanes.size(); ++l)
        expectSameResult(batched[l], exec::execute(graph, lanes[l]));
}

TEST(BatchedExec, NaNIsTrackedPerLane)
{
    Graph graph;
    const int a = addInput(graph, DType::kF32, Shape{{2}});
    const int b = addInput(graph, DType::kF32, Shape{{2}});
    appendBinary(graph, BinaryKind::kAdd, a, b);

    std::vector<exec::LeafValues> lanes(2);
    lanes[0].emplace(a, Tensor::fromVector<float>({1.0f, 2.0f}));
    lanes[0].emplace(b, Tensor::fromVector<float>({3.0f, 4.0f}));
    lanes[1].emplace(a, Tensor::fromVector<float>(
                            {std::nanf(""), 2.0f}));
    lanes[1].emplace(b, Tensor::fromVector<float>({3.0f, 4.0f}));

    const auto batched = exec::executeBatched(graph, lanes);
    ASSERT_EQ(batched.size(), 2u);
    EXPECT_TRUE(batched[0].numericallyValid());
    EXPECT_FALSE(batched[1].numericallyValid());
    EXPECT_EQ(batched[1].firstInvalidNode,
              exec::execute(graph, lanes[1]).firstInvalidNode);
}

TEST(BatchedExec, RunCaseBatchMatchesRunCase)
{
    const auto owned = difftest::makeAllBackends();
    const auto raw = test::borrow(owned);

    Rng rng(23);
    int checked = 0;
    for (uint64_t seed = 0; seed < 4; ++seed) {
        gen::GraphGenerator gen(smallConfig(5), 7000 + seed);
        const auto model = gen.generate();
        if (!model)
            continue;
        std::vector<exec::LeafValues> lanes;
        for (size_t l = 0; l < 4; ++l)
            lanes.push_back(exec::randomLeaves(model->graph, rng));
        const auto batched =
            difftest::runCaseBatch(model->graph, lanes, raw);
        ASSERT_EQ(batched.size(), lanes.size());
        for (size_t l = 0; l < lanes.size(); ++l) {
            const auto sequential =
                difftest::runCase(model->graph, lanes[l], raw);
            EXPECT_EQ(batched[l].exportOk, sequential.exportOk);
            EXPECT_EQ(batched[l].exportCrashKind,
                      sequential.exportCrashKind);
            EXPECT_EQ(batched[l].referenceValid,
                      sequential.referenceValid);
            EXPECT_EQ(batched[l].triggeredDefects,
                      sequential.triggeredDefects);
            ASSERT_EQ(batched[l].verdicts.size(),
                      sequential.verdicts.size());
            for (size_t v = 0; v < sequential.verdicts.size(); ++v) {
                EXPECT_EQ(batched[l].verdicts[v].backend,
                          sequential.verdicts[v].backend);
                EXPECT_EQ(batched[l].verdicts[v].verdict,
                          sequential.verdicts[v].verdict);
                EXPECT_EQ(batched[l].verdicts[v].crashKind,
                          sequential.verdicts[v].crashKind);
                EXPECT_EQ(batched[l].verdicts[v].detail,
                          sequential.verdicts[v].detail);
                EXPECT_EQ(batched[l].verdicts[v].localizedToOptimizer,
                          sequential.verdicts[v].localizedToOptimizer);
            }
        }
        ++checked;
    }
    EXPECT_GE(checked, 3);
}

/** Whole-fuzzer identity: a batched iteration with the sweep on must
 *  produce the same outcome (bugs, cost, diversity keys) as the same
 *  iteration with lanes run sequentially. */
TEST(BatchedExec, FuzzerSweepOutcomeMatchesSequentialLanes)
{
    const auto owned = difftest::makeAllBackends();
    const auto raw = test::borrow(owned);

    const auto outcomes = [&raw](bool sweep) {
        fuzz::NNSmithFuzzer::Options options;
        options.generator.targetOpNodes = 8;
        options.batch = 4;
        options.batchSweep = sweep;
        fuzz::NNSmithFuzzer fuzzer(options, 99);
        std::vector<fuzz::IterationOutcome> all;
        for (int i = 0; i < 12; ++i)
            all.push_back(fuzzer.iterate(raw));
        return all;
    };
    const auto with_sweep = outcomes(true);
    const auto without = outcomes(false);
    ASSERT_EQ(with_sweep.size(), without.size());
    for (size_t i = 0; i < with_sweep.size(); ++i) {
        EXPECT_EQ(with_sweep[i].cost, without[i].cost);
        EXPECT_EQ(with_sweep[i].produced, without[i].produced);
        EXPECT_EQ(with_sweep[i].instanceKeys, without[i].instanceKeys);
        ASSERT_EQ(with_sweep[i].bugs.size(), without[i].bugs.size());
        for (size_t b = 0; b < without[i].bugs.size(); ++b) {
            EXPECT_EQ(with_sweep[i].bugs[b].dedupKey,
                      without[i].bugs[b].dedupKey);
            EXPECT_EQ(with_sweep[i].bugs[b].kind,
                      without[i].bugs[b].kind);
            EXPECT_EQ(with_sweep[i].bugs[b].backend,
                      without[i].bugs[b].backend);
            EXPECT_EQ(with_sweep[i].bugs[b].detail,
                      without[i].bugs[b].detail);
            EXPECT_EQ(with_sweep[i].bugs[b].defects,
                      without[i].bugs[b].defects);
        }
    }
}

/** Lane input draws consume only the fuzzer's own rng, so a batched
 *  fuzzer is as seed-deterministic as the sequential one — the
 *  property the sharded campaign's byte-identity rests on. */
TEST(BatchedExec, BatchedFuzzerIsSeedDeterministic)
{
    const auto owned = difftest::makeAllBackends();
    const auto raw = test::borrow(owned);

    const auto outcomes = [&raw]() {
        fuzz::NNSmithFuzzer::Options options;
        options.generator.targetOpNodes = 8;
        options.batch = 4;
        fuzz::NNSmithFuzzer fuzzer(options, 321);
        std::vector<fuzz::IterationOutcome> all;
        for (int i = 0; i < 8; ++i)
            all.push_back(fuzzer.iterate(raw));
        return all;
    };
    const auto first = outcomes();
    const auto second = outcomes();
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].cost, second[i].cost);
        EXPECT_EQ(first[i].instanceKeys, second[i].instanceKeys);
        ASSERT_EQ(first[i].bugs.size(), second[i].bugs.size());
        for (size_t b = 0; b < first[i].bugs.size(); ++b)
            EXPECT_EQ(first[i].bugs[b].dedupKey,
                      second[i].bugs[b].dedupKey);
    }
}

} // namespace
} // namespace nnsmith
