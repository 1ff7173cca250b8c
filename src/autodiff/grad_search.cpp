#include "autodiff/grad_search.h"

#include <cmath>

#include "support/logging.h"

namespace nnsmith::autodiff {

using graph::NodeKind;
using tensor::DType;

namespace {

/** Replace NaN/Inf entries of leaf tensors with fresh random values
 *  (Algorithm 3, line 13). */
void
repairExceptionalLeaves(exec::LeafValues& leaves, Rng& rng, double lo,
                        double hi)
{
    for (auto& [id, tensor] : leaves) {
        (void)id;
        if (!tensor::isFloat(tensor.dtype()))
            continue;
        for (int64_t i = 0; i < tensor.numel(); ++i) {
            const double v = tensor.scalarAt(i);
            if (std::isnan(v) || std::isinf(v))
                tensor.setScalar(i, rng.uniformReal(lo, hi));
        }
    }
}

bool
anyExceptionalLeaf(const exec::LeafValues& leaves)
{
    for (const auto& [id, tensor] : leaves) {
        (void)id;
        if (tensor.hasNaNOrInf())
            return true;
    }
    return false;
}

} // namespace

std::string
searchMethodName(SearchMethod method)
{
    switch (method) {
      case SearchMethod::kSampling: return "Sampling";
      case SearchMethod::kGradient: return "Gradient";
      case SearchMethod::kGradientProxy: return "Gradient (Proxy Deriv.)";
    }
    NNSMITH_PANIC("bad SearchMethod");
}

SearchResult
search(const graph::Graph& graph, Rng& rng, const SearchConfig& config)
{
    NNSMITH_ASSERT(graph.isConcrete(), "search needs a concrete graph");
    const double charge = kSearchMsPerOpNodeIteration * graph.numOpNodes();
    SearchResult result;

    const bool use_gradient = config.method != SearchMethod::kSampling;
    const bool previous_proxy = ops::proxyDerivativesEnabled();
    ops::setProxyDerivativesEnabled(config.method ==
                                    SearchMethod::kGradientProxy);

    exec::LeafValues leaves =
        exec::randomLeaves(graph, rng, config.initLo, config.initHi);
    Adam adam(config.learningRate);
    int last_bad_node = -1;

    while (result.iterations < config.maxIterations &&
           result.iterations * charge < config.timeBudgetMs) {
        ++result.iterations;
        const auto exec_result = exec::execute(graph, leaves);
        if (exec_result.numericallyValid()) {
            result.success = true;
            result.values = std::move(leaves);
            break;
        }
        if (!use_gradient) {
            // Sampling baseline: fresh random draw each round.
            leaves = exec::randomLeaves(graph, rng, config.initLo,
                                        config.initHi);
            continue;
        }

        // Algorithm 3: locate the first operator with an exceptional
        // output, pick its first positive loss, descend.
        const int bad_node = exec_result.firstInvalidNode;
        const auto& node = graph.node(bad_node);
        std::vector<Tensor> node_inputs;
        for (int v : node.inputs)
            node_inputs.push_back(exec_result.values.at(v));

        auto loss = firstPositiveLoss(*node.op, node_inputs);
        if (!loss)
            loss = magnitudeLoss(node_inputs);
        result.lastPredicate = node.op->name() + ": " + loss->predicate;

        if (bad_node != last_bad_node) {
            // Loss switched operators: reset the LR schedule (§3.3).
            adam.reset();
            last_bad_node = bad_node;
        }

        const auto leaf_grads =
            backpropagate(graph, exec_result, bad_node, loss->gradInputs);
        const bool changed = adam.step(leaves, leaf_grads);
        if (!changed) {
            // Zero gradient: restart from fresh random values
            // (Algorithm 3, line 11).
            leaves = exec::randomLeaves(graph, rng, config.initLo,
                                        config.initHi);
            adam.reset();
            last_bad_node = -1;
        } else if (anyExceptionalLeaf(leaves)) {
            // NaN/Inf leaked into <X, W>: re-randomize those entries
            // (Algorithm 3, line 13).
            repairExceptionalLeaves(leaves, rng, config.initLo,
                                    config.initHi);
        }
    }

    ops::setProxyDerivativesEnabled(previous_proxy);
    result.elapsedMs = result.iterations * charge;
    return result;
}

} // namespace nnsmith::autodiff
