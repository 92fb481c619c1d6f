#include "tensor/autograd.hh"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "base/logging.hh"
#include "tensor/arena.hh"

namespace ccsa
{
namespace ag
{

namespace
{

/**
 * Output buffer for an op's forward value, zero-filled in both modes.
 * Outside a scope this is a plain owned tensor (exactly what the
 * taped path always allocated); inside an InferenceScope it is a
 * borrowed span bump-allocated from the thread's arena, so the op
 * performs no heap allocation at all. Every op computes through the
 * same code into this buffer, which is what makes inference results
 * bitwise-identical to the taped forward.
 */
Tensor
outTensor(int rows, int cols)
{
    if (InferenceScope::active()) {
        const std::size_t n =
            static_cast<std::size_t>(rows) * cols;
        float* p = InferenceScope::arena().allocate(n);
        std::fill(p, p + n, 0.0f);
        return Tensor::borrowed(p, rows, cols);
    }
    return Tensor(rows, cols);
}

/** Shorthand for the per-op mode test. */
inline bool
inferenceMode()
{
    return InferenceScope::active();
}

} // namespace

Var::Var(Tensor v, bool requires_grad)
{
    node_ = std::make_shared<VarNode>();
    node_->value = std::move(v);
    node_->requiresGrad = requires_grad;
}

Var
Var::noGrad(Tensor v)
{
    Var out;
    out.rawValue_ = std::move(v);
    out.raw_ = true;
    return out;
}

const Tensor&
Var::value() const
{
    if (node_)
        return node_->value;
    if (raw_)
        return rawValue_;
    panic("Var::value: undefined Var");
}

Tensor&
Var::grad()
{
    if (raw_)
        panic("Var::grad: no tape node (inference-mode Var)");
    if (!node_)
        panic("Var::grad: undefined Var");
    node_->ensureGrad();
    return node_->grad;
}

void
Var::zeroGrad()
{
    if (raw_)
        panic("Var::zeroGrad: no tape node (inference-mode Var)");
    if (!node_)
        panic("Var::zeroGrad: undefined Var");
    if (!node_->grad.empty())
        node_->grad.fill(0.0f);
}

Tensor&
Var::mutableValue()
{
    if (raw_)
        panic("Var::mutableValue: no tape node (inference-mode Var)");
    if (!node_)
        panic("Var::mutableValue: undefined Var");
    return node_->value;
}

bool
Var::requiresGrad() const
{
    return node_ && node_->requiresGrad;
}

/** Internal helper: build an op node from value + parents + backward. */
Var
makeOp(Tensor value, std::vector<Var> parents,
       std::function<void(VarNode&)> backward)
{
    Var out(std::move(value), false);
    bool needs = false;
    for (const auto& p : parents) {
        if (!p.defined())
            panic("autograd op: undefined operand");
        if (!p.node())
            panic("autograd op: inference-mode operand on the taped "
                  "path (did a no-grad result escape its scope?)");
        out.node_->parents.push_back(p.node());
        needs = needs || p.node()->requiresGrad;
    }
    out.node_->requiresGrad = needs;
    if (needs)
        out.node_->backwardFn = std::move(backward);
    return out;
}

Var
constant(Tensor t)
{
    if (inferenceMode())
        return Var::noGrad(std::move(t));
    return Var(std::move(t), false);
}

Var
leaf(Tensor t)
{
    if (inferenceMode())
        fatal("ag::leaf: trainable parameters cannot be created "
              "inside an InferenceScope");
    return Var(std::move(t), true);
}

Var
zeros(int rows, int cols)
{
    if (inferenceMode())
        return Var::noGrad(outTensor(rows, cols));
    return Var(Tensor::zeros(rows, cols), false);
}

Var
matmul(const Var& a, const Var& b)
{
    Tensor v = outTensor(a.value().rows(), b.value().cols());
    // matmulInto re-zeroes then accumulates: the value is computed by
    // the same kernel call as the taped path's Tensor::matmul.
    a.value().matmulInto(b.value(), v);
    if (inferenceMode())
        return Var::noGrad(std::move(v));
    auto an = a.node();
    auto bn = b.node();
    return makeOp(std::move(v), {a, b}, [an, bn](VarNode& self) {
        // Accumulate straight into the gradient buffers: no
        // transpose materialisation, no product temporary, no
        // elementwise add pass.
        if (an->requiresGrad) {
            an->ensureGrad();
            self.grad.matmulTransBAccumInto(bn->value, an->grad);
        }
        if (bn->requiresGrad) {
            bn->ensureGrad();
            an->value.matmulTransAAccumInto(self.grad, bn->grad);
        }
    });
}

Var
affinePair(const Var& x, const Var& w, const Var& h, const Var& u,
           const Var& bias)
{
    const Tensor& xv = x.value();
    const Tensor& wv = w.value();
    const Tensor& hv = h.value();
    const Tensor& uv = u.value();
    const Tensor& bv = bias.value();
    if (xv.rows() != hv.rows())
        panic("affinePair: x rows ", xv.rows(), " vs h rows ",
              hv.rows());
    if (wv.cols() != uv.cols() || bv.rows() != 1 ||
        bv.cols() != wv.cols())
        panic("affinePair: output column mismatch");

    Tensor v = outTensor(xv.rows(), wv.cols());
    xv.matmulInto(wv, v);
    Tensor tmp = outTensor(hv.rows(), uv.cols());
    hv.matmulInto(uv, tmp);
    v += tmp; // elementwise: same order as add(matmul, matmul)
    for (int i = 0; i < v.rows(); ++i)
        for (int j = 0; j < v.cols(); ++j)
            v.at(i, j) += bv.at(0, j);
    if (inferenceMode())
        return Var::noGrad(std::move(v));

    auto xn = x.node();
    auto wn = w.node();
    auto hn = h.node();
    auto un = u.node();
    auto bn = bias.node();
    return makeOp(std::move(v), {x, w, h, u, bias},
                  [xn, wn, hn, un, bn](VarNode& self) {
        if (xn->requiresGrad) {
            xn->ensureGrad();
            self.grad.matmulTransBAccumInto(wn->value, xn->grad);
        }
        if (wn->requiresGrad) {
            wn->ensureGrad();
            xn->value.matmulTransAAccumInto(self.grad, wn->grad);
        }
        if (hn->requiresGrad) {
            hn->ensureGrad();
            self.grad.matmulTransBAccumInto(un->value, hn->grad);
        }
        if (un->requiresGrad) {
            un->ensureGrad();
            hn->value.matmulTransAAccumInto(self.grad, un->grad);
        }
        if (bn->requiresGrad) {
            bn->ensureGrad();
            bn->grad += self.grad.sumRows();
        }
    });
}

namespace
{

/** dst = a (elementwise copy); the seed for accumulation-style ops. */
void
copyInto(const Tensor& src, Tensor& dst)
{
    std::copy(src.data(), src.data() + src.size(), dst.data());
}

} // namespace

Var
add(const Var& a, const Var& b)
{
    const Tensor& av = a.value();
    const Tensor& bv = b.value();
    if (!av.sameShape(bv))
        panic("Tensor::operator+: shape mismatch");
    Tensor v = outTensor(av.rows(), av.cols());
    const float* pa = av.data();
    const float* pb = bv.data();
    float* dst = v.data();
    for (std::size_t i = 0; i < av.size(); ++i)
        dst[i] = pa[i] + pb[i];
    if (inferenceMode())
        return Var::noGrad(std::move(v));
    auto an = a.node();
    auto bn = b.node();
    return makeOp(std::move(v), {a, b}, [an, bn](VarNode& self) {
        if (an->requiresGrad) {
            an->ensureGrad();
            an->grad += self.grad;
        }
        if (bn->requiresGrad) {
            bn->ensureGrad();
            bn->grad += self.grad;
        }
    });
}

Var
sub(const Var& a, const Var& b)
{
    const Tensor& av = a.value();
    const Tensor& bv = b.value();
    if (!av.sameShape(bv))
        panic("Tensor::operator-: shape mismatch");
    Tensor v = outTensor(av.rows(), av.cols());
    const float* pa = av.data();
    const float* pb = bv.data();
    float* dst = v.data();
    for (std::size_t i = 0; i < av.size(); ++i)
        dst[i] = pa[i] - pb[i];
    if (inferenceMode())
        return Var::noGrad(std::move(v));
    auto an = a.node();
    auto bn = b.node();
    return makeOp(std::move(v), {a, b}, [an, bn](VarNode& self) {
        if (an->requiresGrad) {
            an->ensureGrad();
            an->grad += self.grad;
        }
        if (bn->requiresGrad) {
            bn->ensureGrad();
            bn->grad -= self.grad;
        }
    });
}

Var
mul(const Var& a, const Var& b)
{
    const Tensor& av = a.value();
    const Tensor& bv = b.value();
    if (!av.sameShape(bv))
        panic("Tensor::operator*: shape mismatch");
    Tensor v = outTensor(av.rows(), av.cols());
    const float* pa = av.data();
    const float* pb = bv.data();
    float* dst = v.data();
    for (std::size_t i = 0; i < av.size(); ++i)
        dst[i] = pa[i] * pb[i];
    if (inferenceMode())
        return Var::noGrad(std::move(v));
    auto an = a.node();
    auto bn = b.node();
    return makeOp(std::move(v), {a, b}, [an, bn](VarNode& self) {
        if (an->requiresGrad) {
            an->ensureGrad();
            an->grad += self.grad * bn->value;
        }
        if (bn->requiresGrad) {
            bn->ensureGrad();
            bn->grad += self.grad * an->value;
        }
    });
}

Var
scale(const Var& a, float s)
{
    const Tensor& av = a.value();
    Tensor v = outTensor(av.rows(), av.cols());
    const float* src = av.data();
    float* dst = v.data();
    for (std::size_t i = 0; i < av.size(); ++i)
        dst[i] = src[i] * s;
    if (inferenceMode())
        return Var::noGrad(std::move(v));
    auto an = a.node();
    return makeOp(std::move(v), {a}, [an, s](VarNode& self) {
        if (an->requiresGrad) {
            an->ensureGrad();
            an->grad += self.grad * s;
        }
    });
}

Var
addN(const std::vector<Var>& xs)
{
    if (xs.empty())
        panic("addN: empty operand list");
    const Tensor& first = xs[0].value();
    Tensor v = outTensor(first.rows(), first.cols());
    copyInto(first, v);
    for (std::size_t i = 1; i < xs.size(); ++i)
        v += xs[i].value();
    if (inferenceMode())
        return Var::noGrad(std::move(v));
    std::vector<VarNodePtr> nodes;
    for (const auto& x : xs)
        nodes.push_back(x.node());
    return makeOp(std::move(v), xs, [nodes](VarNode& self) {
        for (const auto& n : nodes) {
            if (n->requiresGrad) {
                n->ensureGrad();
                n->grad += self.grad;
            }
        }
    });
}

Var
sigmoid(const Var& a)
{
    const Tensor& av = a.value();
    Tensor v = outTensor(av.rows(), av.cols());
    const float* src = av.data();
    float* dst = v.data();
    for (std::size_t i = 0; i < av.size(); ++i)
        dst[i] = 1.0f / (1.0f + std::exp(-src[i]));
    if (inferenceMode())
        return Var::noGrad(std::move(v));
    auto an = a.node();
    return makeOp(v, {a}, [an, v](VarNode& self) {
        if (!an->requiresGrad)
            return;
        an->ensureGrad();
        for (int i = 0; i < v.rows(); ++i)
            for (int j = 0; j < v.cols(); ++j) {
                float y = v.at(i, j);
                an->grad.at(i, j) += self.grad.at(i, j) * y * (1 - y);
            }
    });
}

Var
tanhOp(const Var& a)
{
    const Tensor& av = a.value();
    Tensor v = outTensor(av.rows(), av.cols());
    const float* src = av.data();
    float* dst = v.data();
    for (std::size_t i = 0; i < av.size(); ++i)
        dst[i] = std::tanh(src[i]);
    if (inferenceMode())
        return Var::noGrad(std::move(v));
    auto an = a.node();
    return makeOp(v, {a}, [an, v](VarNode& self) {
        if (!an->requiresGrad)
            return;
        an->ensureGrad();
        for (int i = 0; i < v.rows(); ++i)
            for (int j = 0; j < v.cols(); ++j) {
                float y = v.at(i, j);
                an->grad.at(i, j) += self.grad.at(i, j) * (1 - y * y);
            }
    });
}

Var
relu(const Var& a)
{
    const Tensor& av = a.value();
    Tensor v = outTensor(av.rows(), av.cols());
    const float* src = av.data();
    float* dst = v.data();
    for (std::size_t i = 0; i < av.size(); ++i)
        dst[i] = src[i] > 0.0f ? src[i] : 0.0f;
    if (inferenceMode())
        return Var::noGrad(std::move(v));
    auto an = a.node();
    return makeOp(std::move(v), {a}, [an](VarNode& self) {
        if (!an->requiresGrad)
            return;
        an->ensureGrad();
        for (int i = 0; i < self.value.rows(); ++i)
            for (int j = 0; j < self.value.cols(); ++j)
                if (an->value.at(i, j) > 0.0f)
                    an->grad.at(i, j) += self.grad.at(i, j);
    });
}

Var
addRowBroadcast(const Var& a, const Var& bias)
{
    const Tensor& av = a.value();
    const Tensor& bv = bias.value();
    if (bv.rows() != 1 || bv.cols() != av.cols())
        panic("Tensor::addRowBroadcast: bias must be 1x", av.cols());
    Tensor v = outTensor(av.rows(), av.cols());
    for (int i = 0; i < av.rows(); ++i)
        for (int j = 0; j < av.cols(); ++j)
            v.at(i, j) = av.at(i, j) + bv.at(0, j);
    if (inferenceMode())
        return Var::noGrad(std::move(v));
    auto an = a.node();
    auto bn = bias.node();
    return makeOp(std::move(v), {a, bias}, [an, bn](VarNode& self) {
        if (an->requiresGrad) {
            an->ensureGrad();
            an->grad += self.grad;
        }
        if (bn->requiresGrad) {
            bn->ensureGrad();
            bn->grad += self.grad.sumRows();
        }
    });
}

Var
concatColsOp(const Var& a, const Var& b)
{
    const Tensor& av = a.value();
    const Tensor& bv = b.value();
    if (av.rows() != bv.rows())
        panic("concatCols: row mismatch");
    Tensor v = outTensor(av.rows(), av.cols() + bv.cols());
    for (int i = 0; i < av.rows(); ++i) {
        for (int j = 0; j < av.cols(); ++j)
            v.at(i, j) = av.at(i, j);
        for (int j = 0; j < bv.cols(); ++j)
            v.at(i, av.cols() + j) = bv.at(i, j);
    }
    if (inferenceMode())
        return Var::noGrad(std::move(v));
    auto an = a.node();
    auto bn = b.node();
    int ac = av.cols();
    return makeOp(std::move(v), {a, b}, [an, bn, ac](VarNode& self) {
        if (an->requiresGrad) {
            an->ensureGrad();
            for (int i = 0; i < an->value.rows(); ++i)
                for (int j = 0; j < ac; ++j)
                    an->grad.at(i, j) += self.grad.at(i, j);
        }
        if (bn->requiresGrad) {
            bn->ensureGrad();
            for (int i = 0; i < bn->value.rows(); ++i)
                for (int j = 0; j < bn->value.cols(); ++j)
                    bn->grad.at(i, j) += self.grad.at(i, ac + j);
        }
    });
}

Var
gatherRows(const Var& table, std::vector<int> indices)
{
    const Tensor& t = table.value();
    Tensor v = outTensor(static_cast<int>(indices.size()), t.cols());
    for (std::size_t i = 0; i < indices.size(); ++i) {
        int r = indices[i];
        if (r < 0 || r >= t.rows())
            panic("gatherRows: index ", r, " out of range");
        for (int j = 0; j < t.cols(); ++j)
            v.at(static_cast<int>(i), j) = t.at(r, j);
    }
    if (inferenceMode())
        return Var::noGrad(std::move(v));
    auto tn = table.node();
    return makeOp(std::move(v), {table},
                  [tn, idx = std::move(indices)](VarNode& self) {
        if (!tn->requiresGrad)
            return;
        tn->ensureGrad();
        for (std::size_t i = 0; i < idx.size(); ++i)
            for (int j = 0; j < tn->value.cols(); ++j)
                tn->grad.at(idx[i], j) +=
                    self.grad.at(static_cast<int>(i), j);
    });
}

Var
stackRows(const std::vector<Var>& xs)
{
    if (xs.empty())
        panic("stackRows: empty operand list");
    int cols = xs[0].value().cols();
    int total = 0;
    for (const auto& x : xs) {
        if (x.value().cols() != cols)
            panic("stackRows: column mismatch (", x.value().cols(),
                  " vs ", cols, ")");
        total += x.value().rows();
    }
    Tensor v = outTensor(total, cols);
    int r = 0;
    for (const auto& x : xs) {
        const Tensor& t = x.value();
        std::copy(t.data(), t.data() + t.size(),
                  v.data() + static_cast<std::size_t>(r) * cols);
        r += t.rows();
    }
    if (inferenceMode())
        return Var::noGrad(std::move(v));
    std::vector<VarNodePtr> nodes;
    nodes.reserve(xs.size());
    for (const auto& x : xs)
        nodes.push_back(x.node());
    return makeOp(std::move(v), xs, [nodes](VarNode& self) {
        int cols = self.value.cols();
        int r = 0;
        for (const auto& n : nodes) {
            int rows = n->value.rows();
            if (n->requiresGrad) {
                n->ensureGrad();
                for (int i = 0; i < rows; ++i)
                    for (int j = 0; j < cols; ++j)
                        n->grad.at(i, j) += self.grad.at(r + i, j);
            }
            r += rows;
        }
    });
}

Var
scatterRows(const Var& x, std::vector<int> indices, int num_rows)
{
    const Tensor& t = x.value();
    if (static_cast<int>(indices.size()) != t.rows())
        panic("scatterRows: ", indices.size(), " indices for ",
              t.rows(), " rows");
    Tensor v = outTensor(num_rows, t.cols()); // zero-filled
    for (std::size_t i = 0; i < indices.size(); ++i) {
        int r = indices[i];
        if (r < 0 || r >= num_rows)
            panic("scatterRows: index ", r, " out of range");
        for (int j = 0; j < t.cols(); ++j)
            v.at(r, j) += t.at(static_cast<int>(i), j);
    }
    if (inferenceMode())
        return Var::noGrad(std::move(v));
    auto xn = x.node();
    return makeOp(std::move(v), {x},
                  [xn, idx = std::move(indices)](VarNode& self) {
        if (!xn->requiresGrad)
            return;
        xn->ensureGrad();
        for (std::size_t i = 0; i < idx.size(); ++i)
            for (int j = 0; j < xn->value.cols(); ++j)
                xn->grad.at(static_cast<int>(i), j) +=
                    self.grad.at(idx[i], j);
    });
}

Var
rowSlice(const Var& x, int begin, int rows)
{
    const Tensor& t = x.value();
    if (begin < 0 || rows < 1 || begin + rows > t.rows())
        panic("rowSlice: [", begin, ", ", begin + rows,
              ") out of range for ", t.rows(), " rows");
    Tensor v = outTensor(rows, t.cols());
    std::copy(
        t.data() + static_cast<std::size_t>(begin) * t.cols(),
        t.data() + static_cast<std::size_t>(begin + rows) * t.cols(),
        v.data());
    if (inferenceMode())
        return Var::noGrad(std::move(v));
    auto xn = x.node();
    return makeOp(std::move(v), {x}, [xn, begin, rows](VarNode& self) {
        if (!xn->requiresGrad)
            return;
        xn->ensureGrad();
        for (int i = 0; i < rows; ++i)
            for (int j = 0; j < xn->value.cols(); ++j)
                xn->grad.at(begin + i, j) += self.grad.at(i, j);
    });
}

Var
pickRows(const std::vector<Var>& sources,
         std::vector<std::pair<int, int>> picks)
{
    if (sources.empty())
        panic("pickRows: no sources");
    // Validate only the sources a pick names: the tree-LSTM level
    // pass hands in every earlier level, so checking them all would
    // make a deep schedule quadratic in its depth.
    int cols = picks.empty() ? sources[0].value().cols() : -1;
    for (auto [src, row] : picks) {
        if (src < 0 || src >= static_cast<int>(sources.size()))
            panic("pickRows: source ", src, " out of range");
        const Tensor& t = sources[src].value();
        if (cols < 0)
            cols = t.cols();
        else if (t.cols() != cols)
            panic("pickRows: column mismatch");
        if (row < 0 || row >= t.rows())
            panic("pickRows: row ", row, " out of range for source ",
                  src);
    }
    Tensor v = outTensor(static_cast<int>(picks.size()), cols);
    for (std::size_t i = 0; i < picks.size(); ++i) {
        auto [src, row] = picks[i];
        const Tensor& t = sources[src].value();
        std::copy(t.data() + static_cast<std::size_t>(row) * cols,
                  t.data() + static_cast<std::size_t>(row + 1) * cols,
                  v.data() + i * static_cast<std::size_t>(cols));
    }
    if (inferenceMode())
        return Var::noGrad(std::move(v));
    std::vector<VarNodePtr> nodes;
    nodes.reserve(sources.size());
    for (const auto& s : sources)
        nodes.push_back(s.node());
    return makeOp(std::move(v), sources,
                  [nodes, ps = std::move(picks)](VarNode& self) {
        for (std::size_t i = 0; i < ps.size(); ++i) {
            VarNode& src = *nodes[ps[i].first];
            if (!src.requiresGrad)
                continue;
            src.ensureGrad();
            int row = ps[i].second;
            for (int j = 0; j < src.value.cols(); ++j)
                src.grad.at(row, j) +=
                    self.grad.at(static_cast<int>(i), j);
        }
    });
}

namespace
{

/** Validate a segment-offset vector; @return the segment count. */
int
checkSegments(const std::vector<int>& offsets, int rows)
{
    if (offsets.size() < 2)
        panic("segmentSum: need at least one segment");
    if (offsets.front() != 0 || offsets.back() != rows)
        panic("segmentSum: offsets must span [0, ", rows, "]");
    for (std::size_t s = 1; s < offsets.size(); ++s)
        if (offsets[s] < offsets[s - 1])
            panic("segmentSum: offsets must be non-decreasing");
    return static_cast<int>(offsets.size()) - 1;
}

/**
 * Shared backward of both segmentSum forms: every row of segment s
 * receives the output gradient row s.
 */
void
segmentSumBackward(VarNode& x, const Tensor& out_grad,
                   const std::vector<int>& offsets)
{
    int segs = static_cast<int>(offsets.size()) - 1;
    for (int s = 0; s < segs; ++s)
        for (int r = offsets[s]; r < offsets[s + 1]; ++r)
            for (int j = 0; j < x.value.cols(); ++j)
                x.grad.at(r, j) += out_grad.at(s, j);
}

} // namespace

Var
segmentSum(const Var& x, std::vector<int> offsets)
{
    const Tensor& t = x.value();
    int segs = checkSegments(offsets, t.rows());
    Tensor v = outTensor(segs, t.cols()); // zero rows for empty segs
    for (int s = 0; s < segs; ++s) {
        if (offsets[s] == offsets[s + 1])
            continue; // empty segment -> zero row
        // Seed from the first row, then add in ascending order: the
        // exact accumulation order of addN over the same rows.
        for (int j = 0; j < t.cols(); ++j)
            v.at(s, j) = t.at(offsets[s], j);
        for (int r = offsets[s] + 1; r < offsets[s + 1]; ++r)
            for (int j = 0; j < t.cols(); ++j)
                v.at(s, j) += t.at(r, j);
    }
    if (inferenceMode())
        return Var::noGrad(std::move(v));
    auto xn = x.node();
    return makeOp(std::move(v), {x},
                  [xn, off = std::move(offsets)](VarNode& self) {
        if (!xn->requiresGrad)
            return;
        xn->ensureGrad();
        segmentSumBackward(*xn, self.grad, off);
    });
}

Var
segmentSum(const Var& x, std::vector<int> offsets, const Var& init)
{
    const Tensor& t = x.value();
    int segs = checkSegments(offsets, t.rows());
    const Tensor& seed = init.value();
    if (seed.rows() != segs || seed.cols() != t.cols())
        panic("segmentSum: init must be ", segs, "x", t.cols());
    Tensor v = outTensor(segs, t.cols());
    copyInto(seed, v);
    for (int s = 0; s < segs; ++s)
        for (int r = offsets[s]; r < offsets[s + 1]; ++r)
            for (int j = 0; j < t.cols(); ++j)
                v.at(s, j) += t.at(r, j);
    if (inferenceMode())
        return Var::noGrad(std::move(v));
    auto xn = x.node();
    auto in = init.node();
    return makeOp(std::move(v), {x, init},
                  [xn, in, off = std::move(offsets)](VarNode& self) {
        if (in->requiresGrad) {
            in->ensureGrad();
            in->grad += self.grad;
        }
        if (xn->requiresGrad) {
            xn->ensureGrad();
            segmentSumBackward(*xn, self.grad, off);
        }
    });
}

Var
sumRowsOp(const Var& a)
{
    const Tensor& av = a.value();
    Tensor v = outTensor(1, av.cols());
    for (int i = 0; i < av.rows(); ++i)
        for (int j = 0; j < av.cols(); ++j)
            v.at(0, j) += av.at(i, j);
    if (inferenceMode())
        return Var::noGrad(std::move(v));
    auto an = a.node();
    return makeOp(std::move(v), {a}, [an](VarNode& self) {
        if (!an->requiresGrad)
            return;
        an->ensureGrad();
        for (int i = 0; i < an->value.rows(); ++i)
            for (int j = 0; j < an->value.cols(); ++j)
                an->grad.at(i, j) += self.grad.at(0, j);
    });
}

Var
meanRowsOp(const Var& a)
{
    const Tensor& av = a.value();
    int n = av.rows();
    if (n == 0)
        panic("meanRowsOp: empty input");
    const float inv_n = 1.0f / static_cast<float>(n);
    Tensor v = outTensor(1, av.cols());
    for (int i = 0; i < av.rows(); ++i)
        for (int j = 0; j < av.cols(); ++j)
            v.at(0, j) += av.at(i, j);
    // Scale the finished sums: same float ops as sumRows() * (1/n).
    v *= inv_n;
    if (inferenceMode())
        return Var::noGrad(std::move(v));
    auto an = a.node();
    return makeOp(std::move(v), {a}, [an, n](VarNode& self) {
        if (!an->requiresGrad)
            return;
        an->ensureGrad();
        float inv = 1.0f / static_cast<float>(n);
        for (int i = 0; i < an->value.rows(); ++i)
            for (int j = 0; j < an->value.cols(); ++j)
                an->grad.at(i, j) += self.grad.at(0, j) * inv;
    });
}

Var
sumAllOp(const Var& a)
{
    Tensor v = outTensor(1, 1);
    v.at(0, 0) = a.value().sumAll();
    if (inferenceMode())
        return Var::noGrad(std::move(v));
    auto an = a.node();
    return makeOp(std::move(v), {a}, [an](VarNode& self) {
        if (!an->requiresGrad)
            return;
        an->ensureGrad();
        float g = self.grad.at(0, 0);
        for (int i = 0; i < an->value.rows(); ++i)
            for (int j = 0; j < an->value.cols(); ++j)
                an->grad.at(i, j) += g;
    });
}

Var
spmm(std::shared_ptr<const CsrMatrix> a, const Var& h)
{
    if (!a)
        panic("spmm: null adjacency");
    Tensor v = outTensor(a->rows(), h.value().cols()); // zero-filled
    a->multiplyInto(h.value(), v);
    if (inferenceMode())
        return Var::noGrad(std::move(v));
    auto hn = h.node();
    return makeOp(std::move(v), {h}, [a, hn](VarNode& self) {
        if (!hn->requiresGrad)
            return;
        hn->ensureGrad();
        hn->grad += a->transposeMultiply(self.grad);
    });
}

Var
bceWithLogits(const Var& logits, const Tensor& targets)
{
    const Tensor& z = logits.value();
    if (z.cols() != 1 || !z.sameShape(targets))
        fatal("bceWithLogits: logits and targets must both be Nx1");
    int n = z.rows();
    if (n == 0)
        fatal("bceWithLogits: empty batch");
    // loss_i = max(z,0) - z*y + log(1 + exp(-|z|))
    double total = 0.0;
    for (int i = 0; i < n; ++i) {
        double zi = z.at(i, 0);
        double yi = targets.at(i, 0);
        total += std::max(zi, 0.0) - zi * yi +
            std::log1p(std::exp(-std::fabs(zi)));
    }
    Tensor v = outTensor(1, 1);
    v.at(0, 0) = static_cast<float>(total / n);
    if (inferenceMode())
        return Var::noGrad(std::move(v));
    auto ln = logits.node();
    return makeOp(std::move(v), {logits}, [ln, targets, n](VarNode& self) {
        if (!ln->requiresGrad)
            return;
        ln->ensureGrad();
        float g = self.grad.at(0, 0) / static_cast<float>(n);
        for (int i = 0; i < n; ++i) {
            float zi = ln->value.at(i, 0);
            float p = 1.0f / (1.0f + std::exp(-zi));
            ln->grad.at(i, 0) += g * (p - targets.at(i, 0));
        }
    });
}

Var
mseLoss(const Var& pred, const Tensor& target)
{
    const Tensor& p = pred.value();
    if (!p.sameShape(target))
        fatal("mseLoss: shape mismatch");
    int n = static_cast<int>(p.size());
    if (n == 0)
        fatal("mseLoss: empty input");
    double total = 0.0;
    for (int i = 0; i < p.rows(); ++i)
        for (int j = 0; j < p.cols(); ++j) {
            double d = p.at(i, j) - target.at(i, j);
            total += d * d;
        }
    Tensor v = outTensor(1, 1);
    v.at(0, 0) = static_cast<float>(total / n);
    if (inferenceMode())
        return Var::noGrad(std::move(v));
    auto pn = pred.node();
    return makeOp(std::move(v), {pred}, [pn, target, n](VarNode& self) {
        if (!pn->requiresGrad)
            return;
        pn->ensureGrad();
        float g = 2.0f * self.grad.at(0, 0) / static_cast<float>(n);
        for (int i = 0; i < pn->value.rows(); ++i)
            for (int j = 0; j < pn->value.cols(); ++j)
                pn->grad.at(i, j) +=
                    g * (pn->value.at(i, j) - target.at(i, j));
    });
}

void
backward(const Var& root)
{
    if (!root.defined())
        panic("backward: undefined root");
    if (!root.node())
        fatal("backward: root was computed in inference mode "
              "(no tape was recorded)");
    if (root.value().rows() != 1 || root.value().cols() != 1)
        fatal("backward: root must be a 1x1 scalar");

    // Rejects entering an InferenceScope on this thread until the
    // pass finishes — and, symmetrically, refuses to start inside one.
    detail::BackwardInProgress in_progress;

    // Iterative DFS to produce a reverse topological order.
    std::vector<VarNode*> order;
    std::unordered_set<VarNode*> visited;
    std::vector<std::pair<VarNode*, std::size_t>> stack;
    stack.emplace_back(root.node().get(), 0);
    visited.insert(root.node().get());
    while (!stack.empty()) {
        auto& [node, next] = stack.back();
        if (next < node->parents.size()) {
            VarNode* p = node->parents[next++].get();
            if (p->requiresGrad && !visited.count(p)) {
                visited.insert(p);
                stack.emplace_back(p, 0);
            }
        } else {
            order.push_back(node);
            stack.pop_back();
        }
    }

    root.node()->ensureGrad();
    root.node()->grad.at(0, 0) = 1.0f;

    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        VarNode* node = *it;
        if (node->backwardFn && node->requiresGrad) {
            node->ensureGrad();
            node->backwardFn(*node);
        }
    }
}

} // namespace ag
} // namespace ccsa
