/**
 * Tests for the backend-agnostic graph-pass registry
 * (backends/graph_pass.h): registry lookup, default-pipeline
 * equivalence (runWithPasses(default) ≡ the historical kO3 compile,
 * bit-for-bit), and the cross-backend semantics-preservation property
 * — every pass registered as semantics-preserving must keep outputs
 * unchanged on random models under the difftest comparator.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "backends/backend.h"
#include "backends/defects.h"
#include "backends/graph_pass.h"
#include "difftest/compare.h"
#include "exec/interpreter.h"
#include "gen/generator.h"
#include "onnx/exporter.h"

namespace nnsmith::backends {
namespace {

TEST(GraphPassRegistry, LookupAndMembership)
{
    EXPECT_TRUE(isGraphPassBackend("OrtLite"));
    EXPECT_TRUE(isGraphPassBackend("TrtLite"));
    EXPECT_FALSE(isGraphPassBackend("TVMLite")); // TIR registry instead
    EXPECT_FALSE(isGraphPassBackend("Exporter"));

    EXPECT_EQ(graphPasses("OrtLite").size(), 14u);
    EXPECT_EQ(graphPasses("TrtLite").size(), 8u);

    EXPECT_NE(findGraphPass("OrtLite", "fuse.matmul_add_gemm"), nullptr);
    EXPECT_NE(findGraphPass("TrtLite", "tactic.matmul_relu"), nullptr);
    // Pass-name spaces are disjoint across backends (what makes the
    // bins shared by all three registries purely structural; see
    // ParallelCampaign.PassSequenceCampaignsAreShardInvariantAndShareBins).
    EXPECT_EQ(findGraphPass("OrtLite", "tactic.matmul_relu"), nullptr);
    EXPECT_EQ(findGraphPass("TrtLite", "fuse.matmul_add_gemm"), nullptr);
    EXPECT_EQ(findGraphPass("OrtLite", "no.such.pass"), nullptr);

    for (const char* backend : {"OrtLite", "TrtLite"}) {
        const auto& passes = graphPasses(backend);
        const auto& pipeline = defaultGraphPipeline(backend);
        ASSERT_EQ(pipeline.size(), passes.size());
        for (size_t i = 0; i < passes.size(); ++i) {
            EXPECT_EQ(pipeline[i], passes[i].name);
            EXPECT_EQ(findGraphPass(backend, passes[i].name), &passes[i]);
            EXPECT_FALSE(std::string(passes[i].category).empty());
        }
    }
}

TEST(GraphPassRegistry, SequenceCoverageBins)
{
    const auto bins = sequenceCoverageBins({"a", "b", "c"});
    EXPECT_NE(std::find(bins.begin(), bins.end(), "len/3"), bins.end());
    EXPECT_NE(std::find(bins.begin(), bins.end(), "first/a"), bins.end());
    EXPECT_NE(std::find(bins.begin(), bins.end(), "last/c"), bins.end());
    EXPECT_NE(std::find(bins.begin(), bins.end(), "pair/a>b"), bins.end());
    EXPECT_NE(std::find(bins.begin(), bins.end(), "pair/b>c"), bins.end());
}

/** One generated test case, exported once and shared by every pass. */
struct Case {
    graph::Graph graph;
    exec::LeafValues leaves;
    onnx::OnnxModel model;
};

std::vector<Case>
makeCases(size_t want, uint64_t seed)
{
    std::vector<Case> cases;
    Rng rng(seed);
    gen::GeneratorConfig config;
    config.targetOpNodes = 8;
    // Export-crash defects are not the quarry here; scope their
    // triggers away and skip the rare graphs that trip them.
    DefectRegistry::TraceScope trace_scope;
    size_t attempts = 0;
    while (cases.size() < want && attempts < want * 4) {
        ++attempts;
        gen::GraphGenerator generator(config, rng.next());
        auto model = generator.generate();
        if (!model.has_value())
            continue;
        Case test_case;
        test_case.leaves = exec::randomLeaves(model->graph, rng);
        try {
            test_case.model = onnx::exportGraph(model->graph);
        } catch (const BackendError&) {
            continue;
        }
        test_case.graph = std::move(model->graph);
        cases.push_back(std::move(test_case));
    }
    return cases;
}

const std::vector<Case>&
sharedCases()
{
    static const std::vector<Case> cases = makeCases(200, 20230808);
    return cases;
}

std::unique_ptr<Backend>
makeBackend(const std::string& name)
{
    return name == "OrtLite" ? makeOrtLite() : makeTrtLite();
}

/** The refactor's core contract: the decomposed registry run through
 *  runWithPasses(default pipeline) is bit-for-bit the historical kO3
 *  compile — same crash kinds, same firings, same output bits. */
TEST(GraphPassProperty, DefaultPipelineEqualsO3)
{
    const auto& cases = sharedCases();
    ASSERT_GE(cases.size(), 100u);
    const difftest::CompareOptions exact{0.0, 0.0};
    for (const char* name : {"OrtLite", "TrtLite"}) {
        const auto backend = makeBackend(name);
        const auto& pipeline = defaultGraphPipeline(name);
        DefectRegistry::TraceScope trace_scope;
        for (const auto& test_case : cases) {
            const auto via_o3 = backend->run(test_case.model,
                                             test_case.leaves,
                                             OptLevel::kO3);
            const auto via_pipeline = backend->runWithPasses(
                test_case.model, test_case.leaves, pipeline);
            ASSERT_EQ(via_o3.status, via_pipeline.status);
            EXPECT_EQ(via_o3.crashKind, via_pipeline.crashKind);
            EXPECT_EQ(via_o3.firedSemantic, via_pipeline.firedSemantic);
            if (via_o3.status == RunResult::Status::kOk) {
                EXPECT_TRUE(difftest::allClose(
                    via_o3.outputs, via_pipeline.outputs, exact));
            }
        }
    }
}

/**
 * The property the `semanticsPreserving` flag asserts: running any
 * preserving pass alone leaves outputs within difftest tolerance of
 * the pass-off (kO0) run and fires no new semantic defect. Crash
 * results are acceptable — crash-symptom defects are orthogonal to
 * output semantics (they host the pass-fuzz crash campaign instead).
 */
TEST(GraphPassProperty, SemanticsPreservingPassesKeepOutputs)
{
    const auto& cases = sharedCases();
    ASSERT_GE(cases.size(), 100u);
    size_t compared = 0;
    for (const char* name : {"OrtLite", "TrtLite"}) {
        const auto backend = makeBackend(name);
        DefectRegistry::TraceScope trace_scope;
        for (const auto& test_case : cases) {
            const auto reference = backend->run(
                test_case.model, test_case.leaves, OptLevel::kO0);
            if (reference.status == RunResult::Status::kCrash)
                continue; // import-stage crash masks the pass stage
            for (const auto& pass : graphPasses(name)) {
                if (!pass.semanticsPreserving)
                    continue;
                const auto result = backend->runWithPasses(
                    test_case.model, test_case.leaves, {pass.name});
                if (result.status == RunResult::Status::kCrash)
                    continue;
                const auto novel = subtractFired(
                    result.firedSemantic, reference.firedSemantic);
                EXPECT_TRUE(novel.empty())
                    << name << "/" << pass.name << " fired " << novel[0];
                EXPECT_TRUE(difftest::allClose(result.outputs,
                                               reference.outputs,
                                               difftest::CompareOptions()))
                    << name << "/" << pass.name << " changed outputs";
                ++compared;
            }
        }
    }
    // The property must actually have exercised the registries.
    EXPECT_GT(compared, 1000u);
}

/** Non-preserving passes host exactly the semantic defects; when one
 *  fires, the firing is attributable (subtraction is nonempty) and
 *  the defect id belongs to the pass's backend-level registry. */
TEST(GraphPassProperty, NonPreservingPassesFireOnlySemanticDefects)
{
    const auto& cases = sharedCases();
    size_t fired_total = 0;
    for (const char* name : {"OrtLite", "TrtLite"}) {
        const auto backend = makeBackend(name);
        DefectRegistry::TraceScope trace_scope;
        for (const auto& test_case : cases) {
            const auto reference = backend->run(
                test_case.model, test_case.leaves, OptLevel::kO0);
            if (reference.status == RunResult::Status::kCrash)
                continue;
            for (const auto& pass : graphPasses(name)) {
                if (pass.semanticsPreserving)
                    continue;
                const auto result = backend->runWithPasses(
                    test_case.model, test_case.leaves, {pass.name});
                if (result.status == RunResult::Status::kCrash)
                    continue;
                for (const auto& id : subtractFired(
                         result.firedSemantic, reference.firedSemantic)) {
                    ++fired_total;
                    const auto* defect =
                        DefectRegistry::instance().find(id);
                    ASSERT_NE(defect, nullptr) << id;
                    EXPECT_EQ(defect->symptom, Symptom::kSemantic) << id;
                }
            }
        }
    }
    // Across 200 random models at least one semantic host must fire
    // (ort.fp.relu_clip and friends trigger on common shapes).
    EXPECT_GT(fired_total, 0u);
}

} // namespace
} // namespace nnsmith::backends
