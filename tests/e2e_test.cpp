/**
 * End-to-end property tests across the whole pipeline:
 * generate -> value-search -> export -> import -> compile(O0/O3) ->
 * compare, swept over seeds and model sizes with parameterized gtest.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "autodiff/grad_search.h"
#include "backends/backend.h"
#include "campaign_fixture.h"
#include "difftest/oracle.h"
#include "gen/generator.h"
#include "graph/validate.h"
#include "onnx/exporter.h"
#include "ops/elementwise.h"
#include "ops/reduce.h"
#include "ops/shape_ops.h"

namespace nnsmith {
namespace {

using backends::DefectRegistry;

/** RAII guard disabling all 72 seeded defects. */
class CleanSubstrate {
  public:
    CleanSubstrate()
    {
        for (const auto& d : DefectRegistry::instance().all())
            DefectRegistry::instance().setEnabled(d.id, false);
    }
    ~CleanSubstrate()
    {
        for (const auto& d : DefectRegistry::instance().all())
            DefectRegistry::instance().setEnabled(d.id, true);
    }
};

struct E2EParam {
    uint64_t seed;
    int nodes;
};

class Pipeline : public ::testing::TestWithParam<E2EParam> {};

TEST_P(Pipeline, CleanBackendsAgreeWithReference)
{
    CleanSubstrate clean;
    const auto param = GetParam();
    gen::GeneratorConfig config;
    config.targetOpNodes = param.nodes;
    gen::GraphGenerator generator(config, param.seed);
    const auto model = generator.generate();
    if (!model)
        GTEST_SKIP() << "generation failed for this seed";

    // Valid by construction.
    const auto validity = graph::validate(model->graph);
    ASSERT_TRUE(validity.ok()) << validity.summary();

    // Numerically valid inputs (or skip: difftest handles NaN refs).
    Rng rng(param.seed);
    autodiff::SearchConfig search_config;
    search_config.timeBudgetMs = 32.0;
    const auto search =
        autodiff::search(model->graph, rng, search_config);
    const auto leaves =
        search.success ? search.values
                       : exec::randomLeaves(model->graph, rng);

    const auto owned = difftest::makeAllBackends();
    const auto raw = test::borrow(owned);
    const auto result = difftest::runCase(model->graph, leaves, raw);
    ASSERT_TRUE(result.exportOk);
    for (const auto& verdict : result.verdicts) {
        // With every defect disabled there can be no bug signal.
        EXPECT_NE(verdict.verdict, difftest::Verdict::kCrash)
            << verdict.backend << ": " << verdict.detail;
        EXPECT_NE(verdict.verdict, difftest::Verdict::kWrongResult)
            << verdict.backend << ": " << verdict.detail;
    }
    EXPECT_TRUE(result.triggeredDefects.empty());
}

TEST_P(Pipeline, O0AndO3AgreeOnCleanSubstrate)
{
    CleanSubstrate clean;
    const auto param = GetParam();
    gen::GeneratorConfig config;
    config.targetOpNodes = param.nodes;
    gen::GraphGenerator generator(config, param.seed * 31 + 5);
    const auto model = generator.generate();
    if (!model)
        GTEST_SKIP();
    Rng rng(param.seed);
    const auto search = autodiff::search(model->graph, rng);
    if (!search.success)
        GTEST_SKIP() << "no numerically valid inputs";
    const auto exported = onnx::exportGraph(model->graph);
    for (auto& backend : difftest::makeAllBackends()) {
        const auto o3 =
            backend->run(exported, search.values, backends::OptLevel::kO3);
        const auto o0 =
            backend->run(exported, search.values, backends::OptLevel::kO0);
        ASSERT_EQ(o3.status, backends::RunResult::Status::kOk);
        ASSERT_EQ(o0.status, backends::RunResult::Status::kOk);
        EXPECT_TRUE(difftest::allClose(o3.outputs, o0.outputs))
            << backend->name();
    }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, Pipeline,
    ::testing::Values(E2EParam{11, 4}, E2EParam{22, 6}, E2EParam{33, 8},
                      E2EParam{44, 10}, E2EParam{55, 12},
                      E2EParam{66, 6}, E2EParam{77, 8}, E2EParam{88, 10}),
    [](const ::testing::TestParamInfo<E2EParam>& info) {
        return "seed" + std::to_string(info.param.seed) + "_n" +
               std::to_string(info.param.nodes);
    });

// ---- targeted trigger checks for defect families ---------------------------

TEST(DefectTriggers, ScalarReduceImportCrash)
{
    // ReduceSum over a rank-1 tensor without keepdims -> scalar output
    // -> TvmLite import crash (the §5.4 scalar family).
    graph::Graph g;
    const auto in_type =
        tensor::TensorType::concrete(tensor::DType::kF32,
                                     tensor::Shape{{4}});
    const auto out_type =
        tensor::TensorType::concrete(tensor::DType::kF32,
                                     tensor::Shape{});
    const int x = g.addLeaf(graph::NodeKind::kInput, in_type, "x");
    auto op = std::make_shared<ops::ReduceOp>(
        ops::ReduceKind::kSum,
        ops::AttrMap{{"rank", 1}, {"axis", 0}, {"keepdims", 0}});
    op->setDTypes({{tensor::DType::kF32}, {tensor::DType::kF32}});
    g.addOp(op, {x}, {out_type});

    exec::LeafValues leaves;
    leaves.emplace(x, tensor::Tensor::full(tensor::DType::kF32,
                                           tensor::Shape{{4}}, 1.0));
    auto tvm = backends::makeTvmLite();
    const auto run = tvm->run(onnx::exportGraph(g), leaves,
                              backends::OptLevel::kO3);
    EXPECT_EQ(run.status, backends::RunResult::Status::kCrash);
    EXPECT_EQ(run.crashKind, "tvm.import.scalar_reduce_sum");
}

TEST(DefectTriggers, I64ReshapeTypecheckCrash)
{
    graph::Graph g;
    const auto in_type = tensor::TensorType::concrete(
        tensor::DType::kI64, tensor::Shape{{2, 3}});
    const auto out_type = tensor::TensorType::concrete(
        tensor::DType::kI64, tensor::Shape{{6}});
    const int x = g.addLeaf(graph::NodeKind::kInput, in_type, "x");
    auto op = std::make_shared<ops::ReshapeOp>(
        ops::AttrMap{{"src_rank", 2}, {"dst_rank", 1}, {"d0", 6}});
    op->setDTypes({{tensor::DType::kI64}, {tensor::DType::kI64}});
    g.addOp(op, {x}, {out_type});

    exec::LeafValues leaves;
    leaves.emplace(x, tensor::Tensor::full(tensor::DType::kI64,
                                           tensor::Shape{{2, 3}}, 1.0));
    auto tvm = backends::makeTvmLite();
    const auto o3 = tvm->run(onnx::exportGraph(g), leaves,
                             backends::OptLevel::kO3);
    EXPECT_EQ(o3.status, backends::RunResult::Status::kCrash);
    EXPECT_EQ(o3.crashKind, "tvm.i64.reshape");
    // Transformation defect: O0 must be unaffected (pass never runs).
    const auto o0 = tvm->run(onnx::exportGraph(g), leaves,
                             backends::OptLevel::kO0);
    EXPECT_EQ(o0.status, backends::RunResult::Status::kOk);
}

TEST(DefectTriggers, TrtRank0InputCrash)
{
    graph::Graph g;
    const auto scalar = tensor::TensorType::concrete(
        tensor::DType::kF32, tensor::Shape{});
    const int x = g.addLeaf(graph::NodeKind::kInput, scalar, "x");
    auto op = std::make_shared<ops::UnaryOp>(ops::UnaryKind::kAbs,
                                             ops::AttrMap{});
    op->setDTypes({{tensor::DType::kF32}, {tensor::DType::kF32}});
    g.addOp(op, {x}, {scalar});
    exec::LeafValues leaves;
    leaves.emplace(x, tensor::Tensor::full(tensor::DType::kF32,
                                           tensor::Shape{}, 2.0));
    auto trt = backends::makeTrtLite();
    const auto run = trt->run(onnx::exportGraph(g), leaves,
                              backends::OptLevel::kO3);
    EXPECT_EQ(run.status, backends::RunResult::Status::kCrash);
    EXPECT_EQ(run.crashKind, "trt.import.rank0");
}

TEST(DefectTriggers, EveryDefectHasValidMetadata)
{
    for (const auto& defect : DefectRegistry::instance().all()) {
        EXPECT_FALSE(defect.id.empty());
        EXPECT_FALSE(defect.description.empty());
        // Ids are namespaced by system.
        switch (defect.system) {
          case backends::System::kOrtLite:
            EXPECT_EQ(defect.id.rfind("ort.", 0), 0u) << defect.id;
            break;
          case backends::System::kTvmLite:
            EXPECT_EQ(defect.id.rfind("tvm.", 0), 0u) << defect.id;
            break;
          case backends::System::kTrtLite:
            EXPECT_EQ(defect.id.rfind("trt.", 0), 0u) << defect.id;
            break;
          case backends::System::kExporter:
            EXPECT_EQ(defect.id.rfind("exp.", 0), 0u) << defect.id;
            break;
        }
    }
}

} // namespace
} // namespace nnsmith
