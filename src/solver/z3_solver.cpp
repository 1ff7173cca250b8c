/**
 * @file
 * z3-backed incremental solver (the paper's configuration, §3.2).
 *
 * Kept in one translation unit so the rest of the library never includes
 * z3++.h; the build works with or without z3 present.
 */
#include <unordered_map>

#include <z3++.h>

#include "obs/metrics.h"
#include "solver/solver.h"
#include "support/logging.h"

namespace nnsmith::solver {

using symbolic::CmpOp;
using symbolic::Expr;
using symbolic::ExprKind;
using symbolic::ExprRef;

namespace {

/**
 * Per-check resource budget in z3's deterministic rlimit units. z3
 * applies it to each check() separately, so it bounds one query, not
 * the model. Over 3000 paper-default models (45,935 checks) the largest
 * check used 8,204 units and the mean was 123; 1,000,000 leaves over
 * 100x headroom, so the limit binds only on pathological queries, and
 * then identically on every run and under any load. It counts units,
 * not seconds: a check that runs out answers unknown, but some
 * nonlinear-arithmetic loops never charge it.
 */
constexpr unsigned kQueryRlimit = 1000000;

/**
 * Incremental z3 wrapper with push/pop batch semantics.
 *
 * Uses z3's simple solver: plain incremental SMT without the combined
 * solver's tactic preprocessing, which dominated generation time on the
 * small linear/nonlinear integer queries shape math produces. Each
 * instance owns a fresh z3::context, so a solver's answers (and hence a
 * generated graph) depend only on its seed and its queries, never on
 * what an earlier instance solved.
 */
class Z3Solver final : public Solver {
  public:
    explicit Z3Solver(uint64_t seed)
        : solver_(ctx_, z3::solver::simple())
    {
        z3::params params(ctx_);
        params.set("rlimit", kQueryRlimit);
        params.set("random_seed", static_cast<unsigned>(seed));
        solver_.set(params);
    }

    bool
    tryAdd(const std::vector<Pred>& batch) override
    {
        if (batch.empty())
            return true;
        solver_.push();
        for (const auto& p : batch)
            solver_.add(translate(p));
        if (checkSat() != z3::sat) {
            solver_.pop();
            return false;
        }
        numCommitted_ += batch.size();
        return true;
    }

    bool
    check() override
    {
        return checkSat() == z3::sat;
    }

    std::optional<Assignment>
    model() override
    {
        if (checkSat() != z3::sat)
            return std::nullopt;
        z3::model m = solver_.get_model();
        Assignment a;
        for (const auto& [id, var] : vars_) {
            z3::expr value = m.eval(var, /*model_completion=*/true);
            int64_t v = 0;
            if (value.is_numeral_i64(v))
                a.set(id, v);
            else
                a.set(id, 1); // unconstrained: any value works
        }
        return a;
    }

    size_t numCommitted() const override { return numCommitted_; }
    std::string name() const override { return "z3"; }

  private:
    /** solver_.check(), counting the queries the rlimit cut short. */
    z3::check_result
    checkSat()
    {
        const z3::check_result result = solver_.check();
        if (result == z3::unknown)
            obs::counterAdd("solver.unknown");
        return result;
    }

    z3::expr
    varFor(VarId id, const std::string& name)
    {
        auto it = vars_.find(id);
        if (it != vars_.end())
            return it->second;
        z3::expr e = ctx_.int_const(name.c_str());
        vars_.emplace(id, e);
        return e;
    }

    z3::expr
    translate(const ExprRef& e)
    {
        switch (e->kind()) {
          case ExprKind::kConst:
            return ctx_.int_val(e->value());
          case ExprKind::kVar:
            return varFor(e->varId(), e->varName());
          case ExprKind::kNeg:
            return -translate(e->lhs());
          case ExprKind::kAdd:
            return translate(e->lhs()) + translate(e->rhs());
          case ExprKind::kSub:
            return translate(e->lhs()) - translate(e->rhs());
          case ExprKind::kMul:
            return translate(e->lhs()) * translate(e->rhs());
          case ExprKind::kFloorDiv: {
            // z3 integer division is Euclidean; for the positive
            // divisors used by shape math it coincides with floor.
            return translate(e->lhs()) / translate(e->rhs());
          }
          case ExprKind::kMod:
            return z3::mod(translate(e->lhs()), translate(e->rhs()));
          case ExprKind::kMin: {
            z3::expr a = translate(e->lhs());
            z3::expr b = translate(e->rhs());
            return z3::ite(a <= b, a, b);
          }
          case ExprKind::kMax: {
            z3::expr a = translate(e->lhs());
            z3::expr b = translate(e->rhs());
            return z3::ite(a >= b, a, b);
          }
        }
        NNSMITH_PANIC("bad ExprKind");
    }

    z3::expr
    translate(const Pred& p)
    {
        z3::expr l = translate(p.lhs);
        z3::expr r = translate(p.rhs);
        switch (p.op) {
          case CmpOp::kEq: return l == r;
          case CmpOp::kNe: return l != r;
          case CmpOp::kLt: return l < r;
          case CmpOp::kLe: return l <= r;
          case CmpOp::kGt: return l > r;
          case CmpOp::kGe: return l >= r;
        }
        NNSMITH_PANIC("bad CmpOp");
    }

    z3::context ctx_;
    z3::solver solver_;
    std::unordered_map<VarId, z3::expr> vars_;
    size_t numCommitted_ = 0;
};

} // namespace

std::unique_ptr<Solver>
makeZ3Solver(uint64_t seed)
{
    return std::make_unique<Z3Solver>(seed);
}

} // namespace nnsmith::solver
