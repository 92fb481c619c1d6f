#include "nn/tree_lstm.hh"

#include <algorithm>

namespace ccsa
{
namespace nn
{

TreeSpec
TreeSpec::fromParents(const std::vector<int>& parent_of)
{
    TreeSpec spec;
    spec.parent = parent_of;
    int n = static_cast<int>(parent_of.size());
    if (n == 0)
        fatal("TreeSpec: empty tree");
    spec.children.resize(n);
    int roots = 0;
    for (int i = 0; i < n; ++i) {
        int p = parent_of[i];
        if (p == -1) {
            spec.root = i;
            ++roots;
        } else if (p < 0 || p >= n) {
            fatal("TreeSpec: parent index out of range");
        } else {
            spec.children[p].push_back(i);
        }
    }
    if (roots != 1)
        fatal("TreeSpec: expected exactly one root, found ", roots);

    // Iterative post-order (children before parents).
    spec.postOrder.reserve(n);
    std::vector<std::pair<int, std::size_t>> stack;
    stack.emplace_back(spec.root, 0);
    while (!stack.empty()) {
        auto& [node, next] = stack.back();
        if (next < spec.children[node].size()) {
            int child = spec.children[node][next++];
            stack.emplace_back(child, 0);
        } else {
            spec.postOrder.push_back(node);
            stack.pop_back();
        }
    }
    if (static_cast<int>(spec.postOrder.size()) != n)
        fatal("TreeSpec: disconnected nodes (cycle or forest)");

    // Level schedules: the upward pass groups nodes by height (all
    // children strictly lower), the downward pass by depth (parent
    // strictly earlier). Computed once here, reused by every layer
    // of every encode call on this tree.
    std::vector<int> height(n, 0);
    for (int node : spec.postOrder)
        for (int child : spec.children[node])
            height[node] = std::max(height[node], height[child] + 1);
    std::vector<int> depth(n, 0);
    for (auto it = spec.postOrder.rbegin(); it != spec.postOrder.rend();
         ++it) {
        int node = *it;
        if (spec.parent[node] != -1)
            depth[node] = depth[spec.parent[node]] + 1;
    }

    auto build = [&](const std::vector<int>& level_of, bool upward) {
        LevelSchedule s;
        int num_levels =
            1 + *std::max_element(level_of.begin(), level_of.end());
        s.levels.resize(num_levels);
        s.depIds.resize(num_levels);
        s.depOffsets.resize(num_levels);
        for (int l = 0; l < num_levels; ++l)
            s.depOffsets[l].push_back(0);
        // Ascending node id within a level: deterministic, and
        // irrelevant to values (rows of a level are independent).
        for (int i = 0; i < n; ++i) {
            int l = level_of[i];
            s.levels[l].push_back(i);
            if (upward) {
                for (int child : spec.children[i])
                    s.depIds[l].push_back(child);
            } else if (spec.parent[i] != -1) {
                s.depIds[l].push_back(spec.parent[i]);
            }
            s.depOffsets[l].push_back(
                static_cast<int>(s.depIds[l].size()));
        }
        return s;
    };
    spec.upSchedule = build(height, true);
    spec.downSchedule = build(depth, false);
    return spec;
}

ChildSumTreeLstmCell::ChildSumTreeLstmCell(int input_dim, int hidden_dim,
                                           Rng& rng,
                                           const std::string& name_prefix)
    : cell_(input_dim, hidden_dim, rng, name_prefix),
      zeroRow_(ag::constant(Tensor::zeros(1, hidden_dim)))
{
}

LstmState
ChildSumTreeLstmCell::compose(const ag::Var& x,
                              const std::vector<ag::Var>& child_h,
                              const std::vector<ag::Var>& child_c) const
{
    using namespace ag;
    if (child_h.size() != child_c.size())
        panic("ChildSumTreeLstmCell: child h/c count mismatch");

    // h~ = sum of child hidden states (the shared zero row for
    // leaves: no per-leaf allocation).
    Var h_tilde = child_h.empty() ? zeroRow_ : addN(child_h);

    Var i = sigmoid(addRowBroadcast(
        add(matmul(x, cell_.wi_.var), matmul(h_tilde, cell_.ui_.var)),
        cell_.bi_.var));
    Var o = sigmoid(addRowBroadcast(
        add(matmul(x, cell_.wo_.var), matmul(h_tilde, cell_.uo_.var)),
        cell_.bo_.var));
    Var u = tanhOp(addRowBroadcast(
        add(matmul(x, cell_.wu_.var), matmul(h_tilde, cell_.uu_.var)),
        cell_.bu_.var));

    // c = i .* u + sum_k f_k .* c_k with a per-child forget gate
    // f_k = sig(W_f x + U_f h_k + b_f).
    Var c = mul(i, u);
    if (!child_h.empty()) {
        Var wf_x = matmul(x, cell_.wf_.var);
        std::vector<Var> terms;
        terms.push_back(c);
        for (std::size_t k = 0; k < child_h.size(); ++k) {
            Var f_k = sigmoid(addRowBroadcast(
                add(wf_x, matmul(child_h[k], cell_.uf_.var)),
                cell_.bf_.var));
            terms.push_back(mul(f_k, child_c[k]));
        }
        c = addN(terms);
    }
    Var h = mul(o, tanhOp(c));
    return {h, c};
}

LstmState
ChildSumTreeLstmCell::composeLevel(const ag::Var& x,
                                   const ag::Var& child_h,
                                   const ag::Var& child_c,
                                   const std::vector<int>& offsets) const
{
    using namespace ag;
    int b = x.value().rows();
    if (static_cast<int>(offsets.size()) != b + 1)
        panic("composeLevel: ", offsets.size(), " offsets for ", b,
              " nodes");
    if (child_h.defined() != child_c.defined())
        panic("composeLevel: child h/c presence mismatch");

    // h~ per node: segment child-sum; an all-leaf level short-cuts
    // to a zero block (arena-backed under an InferenceScope).
    Var h_tilde = child_h.defined()
        ? segmentSum(child_h, offsets)
        : ag::zeros(b, cell_.hiddenDim_);

    Var i = sigmoid(affinePair(x, cell_.wi_.var, h_tilde,
                               cell_.ui_.var, cell_.bi_.var));
    Var o = sigmoid(affinePair(x, cell_.wo_.var, h_tilde,
                               cell_.uo_.var, cell_.bo_.var));
    Var u = tanhOp(affinePair(x, cell_.wu_.var, h_tilde,
                              cell_.uu_.var, cell_.bu_.var));

    Var c = mul(i, u);
    if (child_h.defined()) {
        // Per-child forget gates: child k of node s reads row s of
        // W_f X, so expand the parent rows across the child batch.
        std::vector<int> parent_row;
        parent_row.reserve(
            static_cast<std::size_t>(child_h.value().rows()));
        for (int s = 0; s < b; ++s)
            for (int r = offsets[s]; r < offsets[s + 1]; ++r)
                parent_row.push_back(s);
        Var wf_x = gatherRows(matmul(x, cell_.wf_.var),
                              std::move(parent_row));
        Var f = sigmoid(addRowBroadcast(
            add(wf_x, matmul(child_h, cell_.uf_.var)), cell_.bf_.var));
        // c = i .* u + sum_k f_k .* c_k, accumulated in the exact
        // per-node order (segment sum seeded from i .* u).
        c = segmentSum(mul(f, child_c), offsets, c);
    }
    Var h = mul(o, tanhOp(c));
    return {h, c};
}

const char*
treeArchName(TreeArch arch)
{
    switch (arch) {
      case TreeArch::Uni:
        return "uni-directional";
      case TreeArch::Bi:
        return "bi-directional";
      case TreeArch::Alternating:
        return "alternating";
    }
    return "unknown";
}

TreeLstm::TreeLstm(int input_dim, int hidden_dim, int num_layers,
                   TreeArch arch, Rng& rng)
    : arch_(arch), hiddenDim_(hidden_dim)
{
    if (num_layers < 1)
        fatal("TreeLstm: need at least one layer");
    int in = input_dim;
    for (int l = 0; l < num_layers; ++l) {
        Layer layer;
        std::string prefix = "treelstm.l" + std::to_string(l);
        switch (arch) {
          case TreeArch::Uni:
            layer.up = std::make_unique<ChildSumTreeLstmCell>(
                in, hidden_dim, rng, prefix + ".up");
            layer.soloDirection = TreeDirection::Upward;
            layer.outDim = hidden_dim;
            break;
          case TreeArch::Bi:
            layer.up = std::make_unique<ChildSumTreeLstmCell>(
                in, hidden_dim, rng, prefix + ".up");
            layer.down = std::make_unique<ChildSumTreeLstmCell>(
                in, hidden_dim, rng, prefix + ".down");
            layer.outDim = 2 * hidden_dim;
            break;
          case TreeArch::Alternating:
            layer.soloDirection = (l % 2 == 0)
                ? TreeDirection::Upward : TreeDirection::Downward;
            layer.up = std::make_unique<ChildSumTreeLstmCell>(
                in, hidden_dim, rng,
                prefix + (l % 2 == 0 ? ".up" : ".down"));
            layer.outDim = hidden_dim;
            break;
        }
        in = layer.outDim;
        layers_.push_back(std::move(layer));
    }
}

std::vector<ag::Var>
TreeLstm::runDirection(const ChildSumTreeLstmCell& cell,
                       TreeDirection dir, const TreeSpec& tree,
                       const std::vector<ag::Var>& inputs)
{
    std::size_t n = tree.size();
    std::vector<LstmState> states(n);
    // One scratch pair reused across all nodes instead of a fresh
    // allocation per node.
    std::vector<ag::Var> ch, cc;

    if (dir == TreeDirection::Upward) {
        // Children first: post-order guarantees availability.
        for (int node : tree.postOrder) {
            ch.clear();
            cc.clear();
            ch.reserve(tree.children[node].size());
            cc.reserve(tree.children[node].size());
            for (int child : tree.children[node]) {
                ch.push_back(states[child].h);
                cc.push_back(states[child].c);
            }
            states[node] = cell.compose(inputs[node], ch, cc);
        }
    } else {
        // Parents first: reverse post-order. Each node's only
        // predecessor is its parent (the parent "copies its
        // representation to all its children", paper §IV-C).
        for (auto it = tree.postOrder.rbegin();
             it != tree.postOrder.rend(); ++it) {
            int node = *it;
            ch.clear();
            cc.clear();
            if (tree.parent[node] != -1) {
                ch.push_back(states[tree.parent[node]].h);
                cc.push_back(states[tree.parent[node]].c);
            }
            states[node] = cell.compose(inputs[node], ch, cc);
        }
    }

    std::vector<ag::Var> hs(n);
    for (std::size_t i = 0; i < n; ++i)
        hs[i] = states[i].h;
    return hs;
}

ag::Var
TreeLstm::runDirectionLevels(const ChildSumTreeLstmCell& cell,
                             const TreeSpec::LevelSchedule& sched,
                             std::size_t node_count,
                             const ag::Var& inputs,
                             const LstmState* external, ag::Var* c_out)
{
    // Node states live inside their level's output matrices; nodes
    // are addressed as (source, row) and collected per wavefront with
    // one pickRows op — no per-node tape traffic during the pass.
    // Source 0 is the external block when there is one, then one
    // source per level.
    struct NodeLoc
    {
        int level = -1;
        int row = 0;
    };
    std::vector<NodeLoc> loc(node_count);
    std::vector<ag::Var> level_h, level_c;
    level_h.reserve(sched.levels.size() + 1);
    level_c.reserve(sched.levels.size() + 1);
    if (external != nullptr) {
        level_h.push_back(external->h);
        level_c.push_back(external->c);
    }
    const int first = static_cast<int>(level_h.size());
    auto where = [&](int dep) {
        std::size_t id = static_cast<std::size_t>(dep);
        return id < node_count
            ? loc[id]
            : NodeLoc{0, static_cast<int>(id - node_count)};
    };

    std::vector<std::pair<int, int>> picks;
    for (std::size_t l = 0; l < sched.levels.size(); ++l) {
        const std::vector<int>& ids = sched.levels[l];
        const std::vector<int>& deps = sched.depIds[l];
        LstmState st;

        if (ids.size() == 1) {
            // Single-node wavefront (every level of a degenerate
            // chain): the batching scaffolding would only add
            // overhead, so run the per-node cell directly.
            // composeLevel and compose are bitwise-equal per row,
            // so this changes nothing numerically.
            std::vector<ag::Var> dh, dc;
            dh.reserve(deps.size());
            dc.reserve(deps.size());
            for (int dep : deps) {
                const NodeLoc d = where(dep);
                if (level_h[d.level].value().rows() == 1) {
                    dh.push_back(level_h[d.level]);
                    dc.push_back(level_c[d.level]);
                } else {
                    dh.push_back(
                        ag::rowSlice(level_h[d.level], d.row, 1));
                    dc.push_back(
                        ag::rowSlice(level_c[d.level], d.row, 1));
                }
            }
            st = cell.compose(ag::rowSlice(inputs, ids[0], 1), dh,
                              dc);
        } else {
            ag::Var xl = ag::gatherRows(inputs, ids);
            if (deps.empty()) {
                st = cell.composeLevel(xl, ag::Var(), ag::Var(),
                                       sched.depOffsets[l]);
            } else {
                picks.clear();
                picks.reserve(deps.size());
                for (int dep : deps) {
                    const NodeLoc d = where(dep);
                    picks.emplace_back(d.level, d.row);
                }
                st = cell.composeLevel(
                    xl, ag::pickRows(level_h, picks),
                    ag::pickRows(level_c, picks),
                    sched.depOffsets[l]);
            }
        }

        level_h.push_back(st.h);
        level_c.push_back(st.c);
        for (std::size_t b = 0; b < ids.size(); ++b)
            loc[ids[b]] = {first + static_cast<int>(l),
                           static_cast<int>(b)};
    }

    // Assemble the node-ordered output matrices in one op each. A
    // single-level schedule is already node-ordered (levels list
    // nodes ascending).
    if (sched.levels.size() == 1 &&
        sched.levels[0].size() == node_count) {
        if (c_out != nullptr)
            *c_out = level_c[first];
        return level_h[first];
    }
    picks.clear();
    picks.reserve(node_count);
    for (std::size_t i = 0; i < node_count; ++i)
        picks.push_back({loc[i].level, loc[i].row});
    if (c_out != nullptr)
        *c_out = ag::pickRows(level_c, picks);
    return ag::pickRows(level_h, picks);
}

TreeLstm::LayerStates
TreeLstm::encodeUpward(const TreeSpec::LevelSchedule& sched,
                       std::size_t node_count, const ag::Var& inputs,
                       const LayerStates& external) const
{
    if (arch_ != TreeArch::Uni)
        fatal("TreeLstm::encodeUpward: needs the uni-directional "
              "architecture (", treeArchName(arch_), " given)");
    if (static_cast<std::size_t>(inputs.value().rows()) != node_count)
        fatal("TreeLstm::encodeUpward: ", inputs.value().rows(),
              " input rows for ", node_count, " nodes");
    const bool has_external = !external.h.empty();
    if (has_external && (external.h.size() != layers_.size() ||
                         external.c.size() != layers_.size()))
        fatal("TreeLstm::encodeUpward: external states for ",
              external.h.size(), " layers, model has ",
              layers_.size());

    LayerStates out;
    out.h.reserve(layers_.size());
    out.c.reserve(layers_.size());
    ag::Var x = inputs;
    for (std::size_t l = 0; l < layers_.size(); ++l) {
        LstmState ext;
        if (has_external)
            ext = {external.h[l], external.c[l]};
        ag::Var c;
        x = runDirectionLevels(*layers_[l].up, sched, node_count, x,
                               has_external ? &ext : nullptr, &c);
        out.h.push_back(x);
        out.c.push_back(c);
    }
    return out;
}

std::vector<ag::Var>
TreeLstm::encodeNodes(const TreeSpec& tree,
                      const std::vector<ag::Var>& inputs) const
{
    if (inputs.size() != tree.size())
        fatal("TreeLstm::encodeNodes: input count ", inputs.size(),
              " != tree size ", tree.size());
    // Degenerate chain: every wavefront has width one, so there is
    // nothing to batch — the per-node path avoids the
    // stack/slice adaptation entirely (identical results).
    if (tree.upSchedule.depth() == tree.size())
        return encodeNodesPerNode(tree, inputs);
    return encodeForest({&tree}, ag::stackRows(inputs))[0];
}

std::vector<ag::Var>
TreeLstm::encodeNodesPerNode(const TreeSpec& tree,
                             const std::vector<ag::Var>& inputs) const
{
    if (inputs.size() != tree.size())
        fatal("TreeLstm::encodeNodesPerNode: input count ",
              inputs.size(), " != tree size ", tree.size());

    std::vector<ag::Var> current = inputs;
    for (const Layer& layer : layers_) {
        if (arch_ == TreeArch::Bi) {
            auto up = runDirection(*layer.up, TreeDirection::Upward,
                                   tree, current);
            auto down = runDirection(*layer.down,
                                     TreeDirection::Downward, tree,
                                     current);
            std::vector<ag::Var> merged(tree.size());
            for (std::size_t i = 0; i < tree.size(); ++i)
                merged[i] = ag::concatColsOp(up[i], down[i]);
            current = std::move(merged);
        } else {
            current = runDirection(*layer.up, layer.soloDirection,
                                   tree, current);
        }
    }
    return current;
}

namespace
{

/**
 * Merge per-tree level schedules into one forest schedule with
 * globally offset node ids: forest level l is the concatenation of
 * every tree's level l, so trees of different depths simply drop out
 * of later wavefronts.
 */
TreeSpec::LevelSchedule
mergeSchedules(const std::vector<const TreeSpec*>& trees, bool upward)
{
    TreeSpec::LevelSchedule merged;
    int offset = 0;
    for (const TreeSpec* tree : trees) {
        const TreeSpec::LevelSchedule& s =
            upward ? tree->upSchedule : tree->downSchedule;
        if (merged.levels.size() < s.levels.size()) {
            merged.levels.resize(s.levels.size());
            merged.depIds.resize(s.levels.size());
            merged.depOffsets.resize(s.levels.size());
        }
        for (std::size_t l = 0; l < s.levels.size(); ++l) {
            if (merged.depOffsets[l].empty())
                merged.depOffsets[l].push_back(0);
            for (int id : s.levels[l])
                merged.levels[l].push_back(id + offset);
            for (int id : s.depIds[l])
                merged.depIds[l].push_back(id + offset);
            for (std::size_t b = 1; b < s.depOffsets[l].size(); ++b) {
                int len = s.depOffsets[l][b] - s.depOffsets[l][b - 1];
                merged.depOffsets[l].push_back(
                    merged.depOffsets[l].back() + len);
            }
        }
        offset += static_cast<int>(tree->size());
    }
    // Shallow trees leave later levels without an offsets seed.
    for (auto& off : merged.depOffsets)
        if (off.empty())
            off.push_back(0);
    return merged;
}

} // namespace

ag::Var
TreeLstm::encodeForestStacked(
    const std::vector<const TreeSpec*>& trees,
    const ag::Var& inputs) const
{
    if (trees.empty())
        fatal("TreeLstm::encodeForestStacked: empty forest");
    std::size_t n = 0;
    for (const TreeSpec* tree : trees) {
        if (tree == nullptr)
            fatal("TreeLstm::encodeForestStacked: null tree");
        n += tree->size();
    }
    if (static_cast<std::size_t>(inputs.value().rows()) != n)
        fatal("TreeLstm::encodeForestStacked: ",
              inputs.value().rows(), " input rows for ", n,
              " forest nodes");

    bool need_up = false;
    bool need_down = false;
    for (const Layer& layer : layers_) {
        if (arch_ == TreeArch::Bi ||
            layer.soloDirection == TreeDirection::Upward)
            need_up = true;
        if (arch_ == TreeArch::Bi ||
            layer.soloDirection == TreeDirection::Downward)
            need_down = true;
    }

    // Single trees reuse their precomputed schedules; forests merge
    // them once per call (O(total nodes)).
    TreeSpec::LevelSchedule merged_up, merged_down;
    const TreeSpec::LevelSchedule* up_sched = &trees[0]->upSchedule;
    const TreeSpec::LevelSchedule* down_sched =
        &trees[0]->downSchedule;
    if (trees.size() > 1) {
        if (need_up) {
            merged_up = mergeSchedules(trees, true);
            up_sched = &merged_up;
        }
        if (need_down) {
            merged_down = mergeSchedules(trees, false);
            down_sched = &merged_down;
        }
    }

    ag::Var x = inputs;
    for (const Layer& layer : layers_) {
        if (arch_ == TreeArch::Bi) {
            ag::Var up = runDirectionLevels(*layer.up, *up_sched, n,
                                            x);
            ag::Var down = runDirectionLevels(*layer.down,
                                              *down_sched, n, x);
            x = ag::concatColsOp(up, down);
        } else {
            const TreeSpec::LevelSchedule& sched =
                layer.soloDirection == TreeDirection::Upward
                    ? *up_sched : *down_sched;
            x = runDirectionLevels(*layer.up, sched, n, x);
        }
    }
    return x;
}

std::vector<std::vector<ag::Var>>
TreeLstm::encodeForest(const std::vector<const TreeSpec*>& trees,
                       const ag::Var& inputs) const
{
    ag::Var stacked = encodeForestStacked(trees, inputs);
    std::vector<std::vector<ag::Var>> out;
    out.reserve(trees.size());
    int base = 0;
    for (const TreeSpec* tree : trees) {
        std::vector<ag::Var> nodes;
        nodes.reserve(tree->size());
        for (std::size_t i = 0; i < tree->size(); ++i)
            nodes.push_back(ag::rowSlice(
                stacked, base + static_cast<int>(i), 1));
        out.push_back(std::move(nodes));
        base += static_cast<int>(tree->size());
    }
    return out;
}

std::vector<ag::Var>
TreeLstm::encodeForestRoots(
    const std::vector<const TreeSpec*>& trees,
    const ag::Var& inputs) const
{
    ag::Var stacked = encodeForestStacked(trees, inputs);
    std::vector<ag::Var> roots;
    roots.reserve(trees.size());
    int base = 0;
    for (const TreeSpec* tree : trees) {
        roots.push_back(ag::rowSlice(stacked, base + tree->root, 1));
        base += static_cast<int>(tree->size());
    }
    return roots;
}

ag::Var
TreeLstm::encodeRoot(const TreeSpec& tree,
                     const std::vector<ag::Var>& inputs) const
{
    if (inputs.size() != tree.size())
        fatal("TreeLstm::encodeRoot: input count ", inputs.size(),
              " != tree size ", tree.size());
    if (tree.upSchedule.depth() == tree.size())
        return encodeNodesPerNode(tree, inputs)[tree.root];
    // Root-only: skip the per-node slicing of encodeNodes.
    return encodeForestRoots({&tree}, ag::stackRows(inputs))[0];
}

int
TreeLstm::outputDim() const
{
    return layers_.back().outDim;
}

std::vector<Parameter*>
TreeLstm::parameters()
{
    std::vector<Parameter*> out;
    for (Layer& layer : layers_) {
        if (layer.up) {
            auto ps = layer.up->parameters();
            out.insert(out.end(), ps.begin(), ps.end());
        }
        if (layer.down) {
            auto ps = layer.down->parameters();
            out.insert(out.end(), ps.begin(), ps.end());
        }
    }
    return out;
}

} // namespace nn
} // namespace ccsa
