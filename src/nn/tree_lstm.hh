/**
 * @file
 * Child-sum tree-LSTM (paper Eq. 4, after Tai et al. 2015) and the
 * three multi-layer drivers of Figure 2:
 *
 *  - uni-directional: every layer propagates leaves -> root;
 *  - bi-directional: every layer runs an upward and a downward
 *    tree-LSTM and concatenates the two hidden states per node;
 *  - alternating: layers alternate upward / downward / upward ...,
 *    halving the parameter count of the bi-directional variant (the
 *    configuration the paper finds best overall).
 *
 * The drivers are structure-agnostic: they consume a TreeSpec (parent
 * array + traversal orders), so the nn module stays independent of the
 * AST representation.
 */

#ifndef CCSA_NN_TREE_LSTM_HH
#define CCSA_NN_TREE_LSTM_HH

#include <memory>

#include "nn/lstm.hh"
#include "nn/module.hh"

namespace ccsa
{
namespace nn
{

/** Structural view of a rooted tree for the tree-LSTM drivers. */
struct TreeSpec
{
    /**
     * Wavefront schedule for one propagation direction. The
     * tree-LSTM recurrence is depth-synchronous: every node of
     * levels[l] depends only on nodes in levels < l, so a whole
     * level composes as ONE batched cell application (one matmul
     * per weight matrix) instead of one tiny matmul per node.
     *
     * depIds[l] flattens the dependency node ids of levels[l] (the
     * children for the upward pass, the parent for the downward
     * pass) grouped per node in level order; depOffsets[l] holds the
     * levels[l].size() + 1 segment boundaries into depIds[l].
     */
    struct LevelSchedule
    {
        std::vector<std::vector<int>> levels;
        std::vector<std::vector<int>> depIds;
        std::vector<std::vector<int>> depOffsets;

        std::size_t depth() const { return levels.size(); }
    };

    /** parent[i] = parent node id, or -1 for the root. */
    std::vector<int> parent;
    /** children[i] = node ids of i's children. */
    std::vector<std::vector<int>> children;
    /** Nodes ordered children-before-parents (upward pass order). */
    std::vector<int> postOrder;
    /** Index of the root node. */
    int root = 0;

    /**
     * Height-grouped wavefronts (children as dependencies), computed
     * once in fromParents and reused across layers and encode calls.
     */
    LevelSchedule upSchedule;
    /** Depth-grouped wavefronts (parent as the only dependency). */
    LevelSchedule downSchedule;

    std::size_t size() const { return parent.size(); }

    /**
     * Build the derived fields from a parent array.
     * @param parent_of parent id per node, exactly one -1 entry.
     */
    static TreeSpec fromParents(const std::vector<int>& parent_of);
};

/**
 * Child-sum tree-LSTM unit (Eq. 4): gates read the sum of child hidden
 * states; each child gets its own forget gate so the cell can
 * selectively keep information per subtree.
 */
class ChildSumTreeLstmCell : public Module
{
  public:
    ChildSumTreeLstmCell(int input_dim, int hidden_dim, Rng& rng,
                         const std::string& name_prefix = "treelstm");

    /**
     * Compose one node from its children.
     * @param x node input (1 x input_dim).
     * @param child_h hidden states of the children (may be empty).
     * @param child_c cell states of the children (same length).
     */
    LstmState compose(const ag::Var& x,
                      const std::vector<ag::Var>& child_h,
                      const std::vector<ag::Var>& child_c) const;

    /**
     * Batched form of compose(): one wavefront of B same-level
     * nodes in a single cell application.
     *
     * Numerics: every gate preactivation row and every child-sum
     * accumulates in exactly the per-node order (ordered matmul
     * kernel, segment sums seeded like addN), so each output row is
     * bitwise-identical to compose() on that node alone.
     *
     * @param x level inputs (B x input_dim).
     * @param child_h stacked child hidden states (K x hidden_dim),
     *        grouped per node; an undefined Var when the level has
     *        no children at all (K == 0).
     * @param child_c stacked child cell states (same layout).
     * @param offsets B + 1 segment boundaries mapping children to
     *        nodes (offsets[b]..offsets[b+1] are node b's children).
     */
    LstmState composeLevel(const ag::Var& x, const ag::Var& child_h,
                           const ag::Var& child_c,
                           const std::vector<int>& offsets) const;

    int inputDim() const { return cell_.inputDim(); }
    int hiddenDim() const { return cell_.hiddenDim(); }

    std::vector<Parameter*> parameters() override
    {
        return cell_.parameters();
    }

  private:
    // Reuses the LstmCell parameter block; the composition logic
    // differs (summed child states, per-child forget gates).
    LstmCell cell_;
    // Shared leaf h~ (1 x hidden zeros), hoisted out of compose():
    // constants carry no gradient, so one tape node serves every
    // leaf of every tree.
    ag::Var zeroRow_;
};

/** Propagation direction of one tree-LSTM layer. */
enum class TreeDirection
{
    Upward,   ///< leaves to root (information flows child -> parent)
    Downward, ///< root to leaves (parent copies state to children)
};

/** Multi-layer architecture (Fig. 2 of the paper). */
enum class TreeArch
{
    Uni,         ///< all layers upward
    Bi,          ///< each layer: upward + downward, concatenated
    Alternating, ///< upward, downward, upward, ...
};

/** @return human-readable architecture name. */
const char* treeArchName(TreeArch arch);

/**
 * Stacked tree-LSTM encoder over a TreeSpec. Layer l's per-node hidden
 * states feed layer l+1 as inputs, "leading to greater refinement of
 * each sub-tree's representation" (paper §IV-C).
 */
class TreeLstm : public Module
{
  public:
    /**
     * @param input_dim per-node input feature size (lambda).
     * @param hidden_dim hidden state size per direction.
     * @param num_layers stacked layer count (>= 1).
     * @param arch multi-layer wiring of Fig. 2.
     */
    TreeLstm(int input_dim, int hidden_dim, int num_layers,
             TreeArch arch, Rng& rng);

    /**
     * Encode every node of a tree through the level-batched
     * wavefront path: per layer, O(depth) large matmuls instead of
     * O(nodes) tiny ones.
     * @param tree structural view.
     * @param inputs per-node input vectors (1 x input_dim each).
     * @return final-layer hidden state per node.
     */
    std::vector<ag::Var> encodeNodes(
        const TreeSpec& tree, const std::vector<ag::Var>& inputs) const;

    /**
     * The legacy one-node-at-a-time path, kept as the reference
     * oracle for the level-batched kernels (parity tests and the
     * old-vs-new encode benchmark). Same results as encodeNodes().
     */
    std::vector<ag::Var> encodeNodesPerNode(
        const TreeSpec& tree, const std::vector<ag::Var>& inputs) const;

    /** Encode and return only the root representation. */
    ag::Var encodeRoot(const TreeSpec& tree,
                       const std::vector<ag::Var>& inputs) const;

    /**
     * Encode a whole forest in one wavefront: level l of every tree
     * joins a single batched cell application, so all distinct trees
     * of a request batch share the same large matmuls. Because rows
     * never mix across trees, each tree's encoding is independent of
     * its companions — forest batching is a pure throughput win.
     * @param trees borrowed tree specs (non-null).
     * @param inputs stacked per-node inputs, trees concatenated in
     *        order (sum of tree sizes x input_dim).
     * @return final-layer hidden states as one stacked matrix
     *         (sum of tree sizes x outputDim), trees in input order.
     */
    ag::Var encodeForestStacked(
        const std::vector<const TreeSpec*>& trees,
        const ag::Var& inputs) const;

    /** Forest encode sliced per tree, per node (diagnostics). */
    std::vector<std::vector<ag::Var>> encodeForest(
        const std::vector<const TreeSpec*>& trees,
        const ag::Var& inputs) const;

    /** Forest encode returning only each tree's root row — the
     * serving path (no per-node slicing). */
    std::vector<ag::Var> encodeForestRoots(
        const std::vector<const TreeSpec*>& trees,
        const ag::Var& inputs) const;

    /**
     * Per-layer states of a set of nodes: h[l] and c[l] are
     * (node_count x hidden) matrices whose row i is node i at layer l.
     */
    struct LayerStates
    {
        std::vector<ag::Var> h;
        std::vector<ag::Var> c;
    };

    /**
     * Upward (Uni) encode of a node set whose dependencies may lie
     * outside it — the hash-consed path, where each scheduled node
     * is a distinct subtree and a child whose states are already
     * known is read instead of recomputed. A dependency id below
     * node_count names a scheduled node; id node_count + e names row
     * e of `external`'s per-layer matrices (empty when nothing is
     * external). Rows are bitwise what encodeNodes() gives the same
     * nodes inside their full trees. FatalError unless arch() is Uni.
     * @param sched upward levels over node ids [0, node_count).
     * @param inputs per-node inputs (node_count x input_dim).
     * @return every layer's h and c for the scheduled nodes.
     */
    LayerStates encodeUpward(const TreeSpec::LevelSchedule& sched,
                             std::size_t node_count,
                             const ag::Var& inputs,
                             const LayerStates& external) const;

    /** @return dimensionality of the per-node output. */
    int outputDim() const;

    /** @return hidden size per direction. */
    int hiddenDim() const { return hiddenDim_; }

    int numLayers() const { return static_cast<int>(layers_.size()); }
    TreeArch arch() const { return arch_; }

    std::vector<Parameter*> parameters() override;

  private:
    struct Layer
    {
        std::unique_ptr<ChildSumTreeLstmCell> up;
        std::unique_ptr<ChildSumTreeLstmCell> down;
        TreeDirection soloDirection = TreeDirection::Upward;
        int outDim = 0;
    };

    /** Run a single direction per-node (legacy oracle path). */
    static std::vector<ag::Var> runDirection(
        const ChildSumTreeLstmCell& cell, TreeDirection dir,
        const TreeSpec& tree, const std::vector<ag::Var>& inputs);

    /**
     * Run a single direction level-batched over a (possibly merged)
     * schedule; @return the stacked hidden states (node_count x
     * hidden) in node order. Dependency ids >= node_count read row
     * (id - node_count) of `external` (h and c matrices) instead of
     * a scheduled node; `c_out`, when set, receives the cell states
     * in node order too.
     */
    static ag::Var runDirectionLevels(
        const ChildSumTreeLstmCell& cell,
        const TreeSpec::LevelSchedule& sched, std::size_t node_count,
        const ag::Var& inputs, const LstmState* external = nullptr,
        ag::Var* c_out = nullptr);

    TreeArch arch_;
    int hiddenDim_;
    std::vector<Layer> layers_;
};

} // namespace nn
} // namespace ccsa

#endif // CCSA_NN_TREE_LSTM_HH
