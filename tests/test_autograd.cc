/**
 * @file
 * Gradient checks for every autograd operation, plus tape mechanics
 * (fan-out accumulation, constant pruning, loss values).
 */

#include <gtest/gtest.h>

#include "gradcheck.hh"
#include "tensor/autograd.hh"

namespace ccsa
{
namespace
{

using testutil::expectGradientsMatch;
using testutil::patterned;

TEST(Autograd, MatmulGradients)
{
    std::vector<ag::Var> leaves{
        ag::leaf(patterned(2, 3, 0.3f)),
        ag::leaf(patterned(3, 4, 0.4f, 1.0f))};
    expectGradientsMatch(leaves, [&] {
        return ag::sumAllOp(ag::matmul(leaves[0], leaves[1]));
    });
}

TEST(Autograd, AddSubMulGradients)
{
    std::vector<ag::Var> leaves{
        ag::leaf(patterned(3, 3, 0.5f)),
        ag::leaf(patterned(3, 3, 0.5f, 2.0f))};
    expectGradientsMatch(leaves, [&] {
        ag::Var s = ag::add(leaves[0], leaves[1]);
        ag::Var d = ag::sub(s, leaves[1]);
        ag::Var m = ag::mul(d, leaves[0]);
        return ag::sumAllOp(m);
    });
}

TEST(Autograd, ScaleAndAddN)
{
    std::vector<ag::Var> leaves{
        ag::leaf(patterned(2, 2, 0.4f)),
        ag::leaf(patterned(2, 2, 0.4f, 1.0f)),
        ag::leaf(patterned(2, 2, 0.4f, 2.0f))};
    expectGradientsMatch(leaves, [&] {
        return ag::sumAllOp(ag::scale(
            ag::addN({leaves[0], leaves[1], leaves[2]}), 0.7f));
    });
}

TEST(Autograd, NonlinearityGradients)
{
    std::vector<ag::Var> leaves{ag::leaf(patterned(2, 4, 0.8f))};
    expectGradientsMatch(leaves, [&] {
        return ag::sumAllOp(ag::sigmoid(leaves[0]));
    });
    expectGradientsMatch(leaves, [&] {
        return ag::sumAllOp(ag::tanhOp(leaves[0]));
    });
    expectGradientsMatch(leaves, [&] {
        // Shift away from zero where relu is non-differentiable.
        return ag::sumAllOp(
            ag::relu(ag::add(leaves[0],
                             ag::constant(Tensor(2, 4, 0.05f)))));
    });
}

TEST(Autograd, RowBroadcastGradients)
{
    std::vector<ag::Var> leaves{
        ag::leaf(patterned(3, 2, 0.3f)),
        ag::leaf(patterned(1, 2, 0.3f, 1.5f))};
    expectGradientsMatch(leaves, [&] {
        return ag::sumAllOp(
            ag::addRowBroadcast(leaves[0], leaves[1]));
    });
}

TEST(Autograd, ConcatColsGradients)
{
    std::vector<ag::Var> leaves{
        ag::leaf(patterned(2, 2, 0.5f)),
        ag::leaf(patterned(2, 3, 0.5f, 0.7f))};
    expectGradientsMatch(leaves, [&] {
        ag::Var cat = ag::concatColsOp(leaves[0], leaves[1]);
        return ag::sumAllOp(ag::mul(cat, cat));
    });
}

TEST(Autograd, GatherRowsGradients)
{
    std::vector<ag::Var> leaves{ag::leaf(patterned(5, 3, 0.4f))};
    expectGradientsMatch(leaves, [&] {
        // Repeated index exercises scatter-accumulation.
        ag::Var g = ag::gatherRows(leaves[0], {0, 2, 2, 4});
        return ag::sumAllOp(ag::mul(g, g));
    });
}

TEST(Autograd, GatherRowsOutOfRangePanics)
{
    ag::Var t = ag::leaf(Tensor(3, 2, 1.0f));
    EXPECT_THROW(ag::gatherRows(t, {3}), PanicError);
}

TEST(Autograd, PickRowsChecksOnlyThePickedSources)
{
    ag::Var narrow = ag::leaf(patterned(2, 3, 0.5f));
    ag::Var wide = ag::leaf(patterned(1, 5, 0.5f));
    // `wide` is never picked, so its column count does not matter:
    // the level pass hands pickRows every earlier level and must not
    // pay to validate the ones it skips.
    ag::Var picked = ag::pickRows({narrow, wide}, {{0, 1}, {0, 0}});
    ASSERT_EQ(picked.value().rows(), 2);
    ASSERT_EQ(picked.value().cols(), 3);
    for (int j = 0; j < 3; ++j) {
        EXPECT_EQ(picked.value().at(0, j), narrow.value().at(1, j));
        EXPECT_EQ(picked.value().at(1, j), narrow.value().at(0, j));
    }
    // Picking from both still demands one column count.
    EXPECT_THROW(ag::pickRows({narrow, wide}, {{0, 0}, {1, 0}}),
                 PanicError);
    EXPECT_THROW(ag::pickRows({narrow, wide}, {{2, 0}}), PanicError);
}

TEST(Autograd, StackRowsValuesAndGradients)
{
    // Mixed row counts: 1 + 2 + 1 rows -> 4 x 3.
    std::vector<ag::Var> leaves{ag::leaf(patterned(1, 3, 0.4f)),
                                ag::leaf(patterned(2, 3, 0.4f, 1.f)),
                                ag::leaf(patterned(1, 3, 0.4f, 2.f))};
    ag::Var s = ag::stackRows(leaves);
    ASSERT_EQ(s.value().rows(), 4);
    EXPECT_FLOAT_EQ(s.value().at(0, 1), leaves[0].value().at(0, 1));
    EXPECT_FLOAT_EQ(s.value().at(2, 2), leaves[1].value().at(1, 2));
    EXPECT_FLOAT_EQ(s.value().at(3, 0), leaves[2].value().at(0, 0));

    expectGradientsMatch(leaves, [&] {
        ag::Var v = ag::stackRows(leaves);
        return ag::sumAllOp(ag::mul(v, v));
    });

    EXPECT_THROW(ag::stackRows({}), PanicError);
    ag::Var wide = ag::leaf(Tensor(1, 4, 1.0f));
    EXPECT_THROW(ag::stackRows({leaves[0], wide}), PanicError);
}

TEST(Autograd, ScatterRowsValuesAndGradients)
{
    std::vector<ag::Var> leaves{ag::leaf(patterned(3, 2, 0.5f))};
    // Repeated target index accumulates; row 1 stays zero.
    ag::Var s = ag::scatterRows(leaves[0], {0, 2, 0}, 4);
    ASSERT_EQ(s.value().rows(), 4);
    EXPECT_FLOAT_EQ(s.value().at(0, 1),
                    leaves[0].value().at(0, 1) +
                        leaves[0].value().at(2, 1));
    EXPECT_FLOAT_EQ(s.value().at(1, 0), 0.0f);
    EXPECT_FLOAT_EQ(s.value().at(2, 0), leaves[0].value().at(1, 0));

    expectGradientsMatch(leaves, [&] {
        ag::Var v = ag::scatterRows(leaves[0], {0, 2, 0}, 4);
        return ag::sumAllOp(ag::mul(v, v));
    });

    EXPECT_THROW(ag::scatterRows(leaves[0], {0, 1}, 4), PanicError);
    EXPECT_THROW(ag::scatterRows(leaves[0], {0, 1, 4}, 4),
                 PanicError);
}

TEST(Autograd, ScatterRowsInvertsGatherRows)
{
    ag::Var table = ag::leaf(patterned(4, 3, 0.7f));
    ag::Var g = ag::gatherRows(table, {2, 0});
    ag::Var back = ag::scatterRows(g, {2, 0}, 4);
    EXPECT_FLOAT_EQ(back.value().at(2, 1), table.value().at(2, 1));
    EXPECT_FLOAT_EQ(back.value().at(0, 0), table.value().at(0, 0));
    EXPECT_FLOAT_EQ(back.value().at(1, 0), 0.0f);
}

TEST(Autograd, RowSliceValuesAndGradients)
{
    std::vector<ag::Var> leaves{ag::leaf(patterned(5, 3, 0.6f))};
    ag::Var s = ag::rowSlice(leaves[0], 1, 2);
    ASSERT_EQ(s.value().rows(), 2);
    EXPECT_FLOAT_EQ(s.value().at(0, 2), leaves[0].value().at(1, 2));
    EXPECT_FLOAT_EQ(s.value().at(1, 0), leaves[0].value().at(2, 0));

    expectGradientsMatch(leaves, [&] {
        // Overlapping slices exercise accumulation into the source.
        ag::Var a = ag::rowSlice(leaves[0], 1, 2);
        ag::Var b = ag::rowSlice(leaves[0], 2, 2);
        return ag::sumAllOp(ag::mul(ag::add(a, b), a));
    });

    EXPECT_THROW(ag::rowSlice(leaves[0], 4, 2), PanicError);
    EXPECT_THROW(ag::rowSlice(leaves[0], -1, 1), PanicError);
    EXPECT_THROW(ag::rowSlice(leaves[0], 0, 0), PanicError);
}

TEST(Autograd, SegmentSumValuesAndGradients)
{
    std::vector<ag::Var> leaves{ag::leaf(patterned(5, 2, 0.5f))};
    // Segments: [0,2) [2,2) empty [2,5).
    std::vector<int> offsets{0, 2, 2, 5};
    ag::Var s = ag::segmentSum(leaves[0], offsets);
    ASSERT_EQ(s.value().rows(), 3);
    EXPECT_FLOAT_EQ(s.value().at(0, 0),
                    leaves[0].value().at(0, 0) +
                        leaves[0].value().at(1, 0));
    EXPECT_FLOAT_EQ(s.value().at(1, 0), 0.0f); // empty segment
    EXPECT_FLOAT_EQ(s.value().at(2, 1),
                    leaves[0].value().at(2, 1) +
                        leaves[0].value().at(3, 1) +
                        leaves[0].value().at(4, 1));

    expectGradientsMatch(leaves, [&] {
        ag::Var v = ag::segmentSum(leaves[0], offsets);
        return ag::sumAllOp(ag::mul(v, v));
    });

    EXPECT_THROW(ag::segmentSum(leaves[0], {0, 2}), PanicError);
    EXPECT_THROW(ag::segmentSum(leaves[0], {0, 3, 2, 5}),
                 PanicError);
    EXPECT_THROW(ag::segmentSum(leaves[0], {5}), PanicError);
}

TEST(Autograd, SegmentSumWithInitGradients)
{
    std::vector<ag::Var> leaves{ag::leaf(patterned(4, 2, 0.5f)),
                                ag::leaf(patterned(2, 2, 0.5f, 1.f))};
    std::vector<int> offsets{0, 3, 4};
    ag::Var s = ag::segmentSum(leaves[0], offsets, leaves[1]);
    EXPECT_FLOAT_EQ(s.value().at(1, 1),
                    leaves[1].value().at(1, 1) +
                        leaves[0].value().at(3, 1));

    expectGradientsMatch(leaves, [&] {
        ag::Var v = ag::segmentSum(leaves[0], offsets, leaves[1]);
        return ag::sumAllOp(ag::mul(v, v));
    });

    ag::Var bad_init = ag::leaf(Tensor(3, 2, 0.0f));
    EXPECT_THROW(ag::segmentSum(leaves[0], offsets, bad_init),
                 PanicError);
}

TEST(Autograd, ReductionGradients)
{
    std::vector<ag::Var> leaves{ag::leaf(patterned(4, 3, 0.6f))};
    expectGradientsMatch(leaves, [&] {
        ag::Var s = ag::sumRowsOp(leaves[0]);
        return ag::sumAllOp(ag::mul(s, s));
    });
    expectGradientsMatch(leaves, [&] {
        ag::Var m = ag::meanRowsOp(leaves[0]);
        return ag::sumAllOp(ag::mul(m, m));
    });
}

TEST(Autograd, SpmmGradients)
{
    auto adj = std::make_shared<CsrMatrix>(CsrMatrix::fromCoo(
        3, 3,
        {{0, 0, 1.0f}, {0, 1, 0.5f}, {1, 2, 2.0f}, {2, 0, -1.0f}}));
    std::vector<ag::Var> leaves{ag::leaf(patterned(3, 2, 0.5f))};
    expectGradientsMatch(leaves, [&] {
        ag::Var h = ag::spmm(adj, leaves[0]);
        return ag::sumAllOp(ag::mul(h, h));
    });
}

TEST(Autograd, BceWithLogitsValueAndGradient)
{
    // Known value: logit 0 -> loss log(2).
    ag::Var z0 = ag::leaf(Tensor(1, 1, 0.0f));
    Tensor y(1, 1, 1.0f);
    ag::Var l = ag::bceWithLogits(z0, y);
    EXPECT_NEAR(l.value().at(0, 0), std::log(2.0f), 1e-5f);

    std::vector<ag::Var> leaves{ag::leaf(patterned(4, 1, 1.2f))};
    Tensor targets = Tensor::fromVector({1, 0, 1, 0}, 4, 1);
    expectGradientsMatch(leaves, [&] {
        return ag::bceWithLogits(leaves[0], targets);
    });
}

TEST(Autograd, BceShapeMismatchFatal)
{
    ag::Var z = ag::leaf(Tensor(2, 1, 0.0f));
    EXPECT_THROW(ag::bceWithLogits(z, Tensor(3, 1, 0.0f)),
                 FatalError);
}

TEST(Autograd, MseLossGradients)
{
    std::vector<ag::Var> leaves{ag::leaf(patterned(2, 3, 0.9f))};
    Tensor target = patterned(2, 3, 0.2f, 4.0f);
    expectGradientsMatch(leaves, [&] {
        return ag::mseLoss(leaves[0], target);
    });
}

TEST(Autograd, FanOutAccumulatesGradients)
{
    // y = x + x => dy/dx = 2.
    ag::Var x = ag::leaf(Tensor(1, 1, 3.0f));
    ag::Var y = ag::add(x, x);
    ag::backward(ag::sumAllOp(y));
    EXPECT_FLOAT_EQ(x.grad().at(0, 0), 2.0f);
}

TEST(Autograd, ConstantsReceiveNoGradient)
{
    ag::Var c = ag::constant(Tensor(2, 2, 1.0f));
    ag::Var x = ag::leaf(Tensor(2, 2, 2.0f));
    ag::Var y = ag::sumAllOp(ag::mul(c, x));
    ag::backward(y);
    EXPECT_FALSE(c.requiresGrad());
    EXPECT_TRUE(x.requiresGrad());
    EXPECT_FLOAT_EQ(x.grad().at(0, 0), 1.0f);
}

TEST(Autograd, BackwardRequiresScalar)
{
    ag::Var x = ag::leaf(Tensor(2, 2, 1.0f));
    EXPECT_THROW(ag::backward(x), FatalError);
}

TEST(Autograd, ZeroGradClears)
{
    ag::Var x = ag::leaf(Tensor(1, 1, 1.0f));
    ag::backward(ag::sumAllOp(ag::mul(x, x)));
    EXPECT_NE(x.grad().at(0, 0), 0.0f);
    x.zeroGrad();
    EXPECT_FLOAT_EQ(x.grad().at(0, 0), 0.0f);
}

TEST(Autograd, DeepChainGradient)
{
    // Long chains exercise the iterative topological sort.
    ag::Var x = ag::leaf(Tensor(1, 4, 0.01f));
    ag::Var h = x;
    for (int i = 0; i < 200; ++i)
        h = ag::scale(ag::add(h, x), 0.99f);
    ag::backward(ag::sumAllOp(h));
    EXPECT_GT(x.grad().at(0, 0), 0.0f);
}

} // namespace
} // namespace ccsa
