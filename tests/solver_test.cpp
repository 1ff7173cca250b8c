/**
 * Tests for the solver backends, including property-style equivalence
 * between z3 (when present) and the native solver on random systems.
 */
#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "solver/solver.h"
#include "support/rng.h"

namespace nnsmith::solver {
namespace {

using symbolic::Expr;
using symbolic::SymbolTable;

class SolverBackends : public ::testing::TestWithParam<SolverKind> {
  protected:
    std::unique_ptr<Solver>
    make()
    {
        return makeSolver(GetParam(), 1234);
    }
};

TEST_P(SolverBackends, EmptySystemIsSat)
{
    auto s = make();
    EXPECT_TRUE(s->check());
    EXPECT_TRUE(s->model().has_value());
}

TEST_P(SolverBackends, SimpleBoxConstraints)
{
    SymbolTable st;
    const auto x = st.fresh("x");
    auto s = make();
    ASSERT_TRUE(s->tryAdd({symbolic::ge(x, 3), symbolic::le(x, 10)}));
    const auto m = s->model();
    ASSERT_TRUE(m.has_value());
    const int64_t v = m->get(x->varId());
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 10);
}

TEST_P(SolverBackends, RejectsContradiction)
{
    SymbolTable st;
    const auto x = st.fresh("x");
    auto s = make();
    ASSERT_TRUE(s->tryAdd({symbolic::ge(x, 5)}));
    EXPECT_FALSE(s->tryAdd({symbolic::le(x, 4)}));
    // The committed system must stay satisfiable after the rollback.
    EXPECT_TRUE(s->check());
    const auto m = s->model();
    ASSERT_TRUE(m.has_value());
    EXPECT_GE(m->get(x->varId()), 5);
}

TEST_P(SolverBackends, EqualityChains)
{
    SymbolTable st;
    const auto a = st.fresh("a");
    const auto b = st.fresh("b");
    const auto c = st.fresh("c");
    auto s = make();
    ASSERT_TRUE(s->tryAdd({symbolic::eq(a, b), symbolic::eq(b, c),
                           symbolic::ge(a, 1), symbolic::le(a, 64),
                           symbolic::eq(c, 7)}));
    const auto m = s->model();
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->get(a->varId()), 7);
    EXPECT_EQ(m->get(b->varId()), 7);
}

TEST_P(SolverBackends, LinearArithmetic)
{
    SymbolTable st;
    const auto h = st.fresh("h");
    const auto k = st.fresh("k");
    const auto p = st.fresh("p");
    auto s = make();
    // Pool2d-style constraint: k <= h + 2p, all small positives.
    ASSERT_TRUE(s->tryAdd({
        symbolic::ge(h, 1), symbolic::le(h, 16),
        symbolic::ge(k, 1), symbolic::le(k, 16),
        symbolic::ge(p, 0), symbolic::le(p, 4),
        symbolic::le(k, h + p * Expr::constant(2)),
    }));
    const auto m = s->model();
    ASSERT_TRUE(m.has_value());
    EXPECT_LE(m->get(k->varId()),
              m->get(h->varId()) + 2 * m->get(p->varId()));
}

TEST_P(SolverBackends, ProductEqualityReshapeStyle)
{
    SymbolTable st;
    const auto a = st.fresh("a");
    const auto b = st.fresh("b");
    const auto c = st.fresh("c");
    auto s = make();
    // prod([a,b]) == prod([c]) with a,b in [1,8]: a*b == c.
    ASSERT_TRUE(s->tryAdd({
        symbolic::ge(a, 2), symbolic::le(a, 8),
        symbolic::ge(b, 2), symbolic::le(b, 8),
        symbolic::ge(c, 1), symbolic::le(c, 64),
        symbolic::eq(a * b, c),
    }));
    const auto m = s->model();
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->get(a->varId()) * m->get(b->varId()), m->get(c->varId()));
}

TEST_P(SolverBackends, IncrementalBatchesAccumulate)
{
    SymbolTable st;
    const auto x = st.fresh("x");
    const auto y = st.fresh("y");
    auto s = make();
    ASSERT_TRUE(s->tryAdd({symbolic::ge(x, 1), symbolic::le(x, 100)}));
    ASSERT_TRUE(s->tryAdd({symbolic::eq(y, x + 5)}));
    ASSERT_TRUE(s->tryAdd({symbolic::le(y, 10)}));
    const auto m = s->model();
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->get(y->varId()), m->get(x->varId()) + 5);
    EXPECT_LE(m->get(y->varId()), 10);
}

TEST_P(SolverBackends, ModelSatisfiesRandomSystems)
{
    // Property: whenever the solver says sat, the model must satisfy
    // every committed predicate (soundness of model extraction).
    Rng rng(99);
    for (int trial = 0; trial < 20; ++trial) {
        SymbolTable st;
        std::vector<symbolic::ExprRef> vars;
        for (int i = 0; i < 6; ++i)
            vars.push_back(st.fresh("v"));
        std::vector<symbolic::Pred> preds;
        for (const auto& v : vars) {
            preds.push_back(symbolic::ge(v, 1));
            preds.push_back(symbolic::le(v, 32));
        }
        for (int i = 0; i < 5; ++i) {
            const auto& a = vars[rng.index(vars.size())];
            const auto& b = vars[rng.index(vars.size())];
            switch (rng.index(3)) {
              case 0: preds.push_back(symbolic::le(a, b)); break;
              case 1: preds.push_back(symbolic::eq(a, b)); break;
              default:
                preds.push_back(
                    symbolic::le(a + b, Expr::constant(40)));
            }
        }
        auto s = makeSolver(GetParam(), 1000 + trial);
        if (!s->tryAdd(preds))
            continue; // over-constrained; fine
        const auto m = s->model();
        ASSERT_TRUE(m.has_value());
        for (const auto& p : preds)
            EXPECT_TRUE(symbolic::holds(p, *m)) << symbolic::toString(p);
    }
}

std::vector<SolverKind>
backendsUnderTest()
{
    std::vector<SolverKind> kinds = {SolverKind::kNative};
    if (haveZ3())
        kinds.push_back(SolverKind::kZ3);
    return kinds;
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, SolverBackends, ::testing::ValuesIn(backendsUnderTest()),
    [](const ::testing::TestParamInfo<SolverKind>& info) {
        return info.param == SolverKind::kZ3 ? "z3" : "native";
    });

TEST(SolverFactory, AutoPrefersZ3WhenAvailable)
{
    auto s = makeSolver(SolverKind::kAuto, 1);
    if (haveZ3())
        EXPECT_EQ(s->name(), "z3");
    else
        EXPECT_EQ(s->name(), "native");
}

TEST(Z3Budget, ExhaustedQueryIsRejectedIdenticallyAndSolverStaysUsable)
{
    if (!haveZ3())
        GTEST_SKIP() << "built without z3";
    // Pigeonhole: 11 values in [1, 10], pairwise distinct. Unsat, but
    // the arithmetic core cannot refute it before the per-query
    // resource limit runs out, so each check ends as z3 "unknown".
    SymbolTable st;
    std::vector<symbolic::ExprRef> holes;
    for (int i = 0; i < 11; ++i)
        holes.push_back(st.fresh("p"));
    std::vector<symbolic::Pred> pigeonhole;
    for (size_t i = 0; i < holes.size(); ++i) {
        pigeonhole.push_back(symbolic::ge(holes[i], 1));
        pigeonhole.push_back(symbolic::le(holes[i], 10));
        for (size_t j = i + 1; j < holes.size(); ++j)
            pigeonhole.push_back(symbolic::ne(holes[i], holes[j]));
    }

    obs::metricsReset();
    obs::setMetricsEnabled(true);
    auto s = makeSolver(SolverKind::kZ3, 1234);
    ASSERT_TRUE(s->tryAdd({symbolic::ge(holes[0], 3)}));
    // The budget is counted in deterministic resource units, not wall
    // time: the verdict is the same on a repeat.
    EXPECT_FALSE(s->tryAdd(pigeonhole));
    EXPECT_FALSE(s->tryAdd(pigeonhole));
    const auto unknowns = obs::metricsSnapshot().counters["solver.unknown"];
    obs::setMetricsEnabled(false);
    obs::metricsReset();
    EXPECT_EQ(unknowns, 2u);

    // Both rejections rolled back; the solver keeps answering.
    EXPECT_EQ(s->numCommitted(), 1u);
    EXPECT_TRUE(s->check());
    ASSERT_TRUE(s->tryAdd({symbolic::le(holes[0], 4)}));
    const auto m = s->model();
    ASSERT_TRUE(m.has_value());
    EXPECT_GE(m->get(holes[0]->varId()), 3);
    EXPECT_LE(m->get(holes[0]->varId()), 4);
}

} // namespace
} // namespace nnsmith::solver
