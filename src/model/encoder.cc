#include "model/encoder.hh"

#include <algorithm>

#include "base/logging.hh"
#include "graph/adjacency.hh"
#include "tensor/arena.hh"

namespace ccsa
{

const char*
encoderKindName(EncoderKind kind)
{
    switch (kind) {
      case EncoderKind::TreeLstm: return "tree-LSTM";
      case EncoderKind::Gcn: return "GCN";
      case EncoderKind::TokenLstm: return "token-LSTM";
    }
    return "unknown";
}

std::vector<ag::Var>
CodeEncoder::encodeMany(const std::vector<const Ast*>& asts) const
{
    std::vector<ag::Var> out;
    out.reserve(asts.size());
    for (const Ast* ast : asts) {
        if (ast == nullptr)
            panic("CodeEncoder::encodeMany: null AST");
        out.push_back(encode(*ast));
    }
    return out;
}

std::vector<ag::Var>
CodeEncoder::encodeManyWithStore(const std::vector<const Ast*>& asts,
                                 SubtreeStateStore&, SubtreeReuse*) const
{
    return encodeMany(asts);
}

TreeLstmEncoder::TreeLstmEncoder(const EncoderConfig& cfg, Rng& rng)
    : embed_(kNumNodeKinds, cfg.embedDim, rng),
      lstm_(cfg.embedDim, cfg.hiddenDim, cfg.layers, cfg.arch, rng)
{
}

std::vector<ag::Var>
TreeLstmEncoder::encodeNodes(const Ast& ast) const
{
    nn::TreeSpec spec = nn::TreeSpec::fromParents(ast.parents());
    // One embedding gather for the whole tree, then the level-batched
    // wavefront path.
    ag::Var x = embed_.forward(ast.kindIds());
    return lstm_.encodeForest({&spec}, x)[0];
}

bool
TreeLstmEncoder::hashConsing() const
{
    return lstm_.arch() == nn::TreeArch::Uni && InferenceScope::active();
}

ag::Var
TreeLstmEncoder::encode(const Ast& ast) const
{
    nn::TreeSpec spec = nn::TreeSpec::fromParents(ast.parents());
    ag::Var x = embed_.forward(ast.kindIds());
    return lstm_.encodeForestRoots({&spec}, x)[0];
}

std::vector<ag::Var>
TreeLstmEncoder::encodeMany(const std::vector<const Ast*>& asts) const
{
    if (hashConsing())
        return encodeHashConsed(asts, nullptr, nullptr);
    return encodeForestRoots(asts);
}

std::vector<ag::Var>
TreeLstmEncoder::encodeManyWithStore(const std::vector<const Ast*>& asts,
                                     SubtreeStateStore& store,
                                     SubtreeReuse* reuse) const
{
    if (hashConsing())
        return encodeHashConsed(asts, &store, reuse);
    return encodeForestRoots(asts);
}

std::vector<ag::Var>
TreeLstmEncoder::encodeForestRoots(
    const std::vector<const Ast*>& asts) const
{
    if (asts.empty())
        return {};
    std::vector<nn::TreeSpec> specs;
    specs.reserve(asts.size());
    std::vector<int> kinds;
    for (const Ast* ast : asts) {
        if (ast == nullptr)
            panic("TreeLstmEncoder::encodeMany: null AST");
        specs.push_back(nn::TreeSpec::fromParents(ast->parents()));
        std::vector<int> k = ast->kindIds();
        kinds.insert(kinds.end(), k.begin(), k.end());
    }
    std::vector<const nn::TreeSpec*> spec_ptrs;
    spec_ptrs.reserve(specs.size());
    for (const nn::TreeSpec& s : specs)
        spec_ptrs.push_back(&s);

    // The entire forest shares one embedding gather and one
    // level-batched wavefront: every request batch's distinct trees
    // feed the same large matmuls.
    ag::Var x = embed_.forward(kinds);
    return lstm_.encodeForestRoots(spec_ptrs, x);
}

namespace
{

/** splitmix64's finalizer: a full-avalanche 64-bit bijection. */
inline std::uint64_t
avalanche(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return x;
}

/** Fold one word into both digest lanes. The lanes differ in seed
 * and see the word through different odd multipliers, so a
 * collision needs two independent 64-bit coincidences. */
inline void
absorb(AstDigest& d, std::uint64_t word)
{
    d.lo = avalanche(d.lo ^ word);
    d.hi = avalanche(d.hi ^ (word * 0xD6E8FEB86659FD93ULL));
}

/** One distinct subtree of a forest. */
struct SubtreeClass
{
    AstDigest digest;
    int kind = 0;
    /** Child classes: childClasses[firstChild, firstChild + arity). */
    int firstChild = 0;
    int arity = 0;
    /** Nodes in the subtree. */
    std::uint64_t size = 1;
};

/**
 * A forest collapsed to its distinct subtrees. Classes are numbered
 * in first-appearance post-order, so every class's children have
 * smaller numbers than the class itself.
 */
struct SubtreeDag
{
    std::vector<SubtreeClass> classes;
    std::vector<int> childClasses;
    /** Root class of each tree, in input order. */
    std::vector<int> roots;
    std::uint64_t nodes = 0;
};

/**
 * Merkle-digest every node of every tree with one iterative
 * post-order walk per tree (ASTs are outside input: nothing here
 * recurses) and intern the digests into classes through an
 * open-addressing table. Children are ordered by ascending node id,
 * exactly as nn::TreeSpec::fromParents orders them for the cell.
 */
SubtreeDag
buildSubtreeDag(const std::vector<const Ast*>& asts)
{
    SubtreeDag dag;
    std::size_t total = 0;
    for (const Ast* ast : asts) {
        if (ast == nullptr)
            panic("TreeLstmEncoder::encodeMany: null AST");
        total += static_cast<std::size_t>(ast->size());
    }
    dag.nodes = total;
    dag.roots.reserve(asts.size());

    std::size_t slots = 16;
    while (slots < 2 * total)
        slots *= 2;
    std::vector<int> table(slots, -1);
    const std::size_t mask = slots - 1;

    std::vector<int> first_child, next_sibling, node_class;
    std::vector<std::pair<int, int>> stack;
    for (const Ast* ast : asts) {
        const int n = ast->size();
        if (n == 0)
            fatal("TreeSpec: empty tree");
        // Children as linked lists threaded in ascending id order.
        first_child.assign(n, -1);
        next_sibling.assign(n, -1);
        int root = -1;
        int roots = 0;
        for (int i = n - 1; i >= 0; --i) {
            const int p = ast->node(i).parent;
            if (p == -1) {
                root = i;
                ++roots;
            } else if (p < 0 || p >= n) {
                fatal("TreeSpec: parent index out of range");
            } else {
                next_sibling[i] = first_child[p];
                first_child[p] = i;
            }
        }
        if (roots != 1)
            fatal("TreeSpec: expected exactly one root, found ", roots);

        node_class.assign(n, -1);
        int visited = 0;
        stack.clear();
        stack.emplace_back(root, first_child[root]);
        while (!stack.empty()) {
            auto& [node, next] = stack.back();
            if (next != -1) {
                const int child = next;
                next = next_sibling[child];
                stack.emplace_back(child, first_child[child]);
                continue;
            }
            SubtreeClass cls;
            cls.kind = kindId(ast->node(node).kind);
            cls.firstChild = static_cast<int>(dag.childClasses.size());
            for (int c = first_child[node]; c != -1; c = next_sibling[c])
                ++cls.arity;
            cls.digest = {0x243F6A8885A308D3ULL, 0x13198A2E03707344ULL};
            absorb(cls.digest,
                   static_cast<std::uint32_t>(cls.kind) |
                       (static_cast<std::uint64_t>(cls.arity) << 32));
            for (int c = first_child[node]; c != -1;
                 c = next_sibling[c]) {
                const SubtreeClass& kid = dag.classes[node_class[c]];
                absorb(cls.digest, kid.digest.lo);
                absorb(cls.digest, kid.digest.hi);
            }
            std::size_t slot = cls.digest.lo & mask;
            while (table[slot] != -1 &&
                   !(dag.classes[table[slot]].digest == cls.digest))
                slot = (slot + 1) & mask;
            if (table[slot] == -1) {
                for (int c = first_child[node]; c != -1;
                     c = next_sibling[c]) {
                    dag.childClasses.push_back(node_class[c]);
                    cls.size += dag.classes[node_class[c]].size;
                }
                table[slot] = static_cast<int>(dag.classes.size());
                dag.classes.push_back(cls);
            }
            node_class[node] = table[slot];
            ++visited;
            stack.pop_back();
        }
        if (visited != n)
            fatal("TreeSpec: disconnected nodes (cycle or forest)");
        dag.roots.push_back(node_class[root]);
    }
    return dag;
}

/** An arena-backed rows x cols no-grad matrix. */
ag::Var
arenaMatrix(int rows, int cols, float** data)
{
    *data = InferenceScope::arena().allocate(
        static_cast<std::size_t>(rows) * cols);
    return ag::Var::noGrad(Tensor::borrowed(*data, rows, cols));
}

} // namespace

std::vector<ag::Var>
TreeLstmEncoder::encodeHashConsed(const std::vector<const Ast*>& asts,
                                  SubtreeStateStore* store,
                                  SubtreeReuse* reuse) const
{
    if (asts.empty())
        return {};
    const SubtreeDag dag = buildSubtreeDag(asts);
    const std::size_t num_classes = dag.classes.size();
    const int layers = lstm_.numLayers();
    const int hidden = lstm_.hiddenDim();
    const std::size_t block =
        2 * static_cast<std::size_t>(layers) * hidden;

    // Walk down from the roots: a class the store holds is read (its
    // whole subtree with it); any other class is computed, and so
    // are the classes below it that the store does not hold.
    enum : char { kUnseen, kCompute, kStored };
    std::vector<char> state(num_classes, kUnseen);
    // Compute classes: wavefront row; stored classes: external row.
    std::vector<int> row(num_classes, -1);
    std::vector<float> stored;
    int num_stored = 0;
    int num_compute = 0;
    std::uint64_t from_store = 0;
    std::vector<int> todo(dag.roots.rbegin(), dag.roots.rend());
    while (!todo.empty()) {
        const int k = todo.back();
        todo.pop_back();
        if (state[k] != kUnseen)
            continue;
        const SubtreeClass& cls = dag.classes[k];
        if (store != nullptr) {
            stored.resize((num_stored + 1) * block);
            if (store->lookup(cls.digest,
                              stored.data() + num_stored * block,
                              block)) {
                state[k] = kStored;
                row[k] = num_stored++;
                from_store += cls.size;
                continue;
            }
        }
        state[k] = kCompute;
        ++num_compute;
        for (int c = cls.arity - 1; c >= 0; --c) {
            const int kid = dag.childClasses[cls.firstChild + c];
            if (state[kid] == kUnseen)
                todo.push_back(kid);
        }
    }

    // Levels by height within the computed DAG, read states counting
    // as ready before level 0. Ascending class order visits children
    // before parents and lists every level's rows ascending.
    nn::TreeSpec::LevelSchedule sched;
    std::vector<int> level(num_classes, 0);
    std::vector<int> kinds;
    kinds.reserve(num_compute);
    for (std::size_t k = 0; k < num_classes; ++k) {
        if (state[k] != kCompute)
            continue;
        const SubtreeClass& cls = dag.classes[k];
        row[k] = static_cast<int>(kinds.size());
        kinds.push_back(cls.kind);
        for (int c = 0; c < cls.arity; ++c) {
            const int kid = dag.childClasses[cls.firstChild + c];
            if (state[kid] == kCompute)
                level[k] = std::max(level[k], level[kid] + 1);
        }
        const int l = level[k];
        if (static_cast<std::size_t>(l) == sched.depth()) {
            sched.levels.emplace_back();
            sched.depIds.emplace_back();
            sched.depOffsets.push_back({0});
        }
        sched.levels[l].push_back(row[k]);
        for (int c = 0; c < cls.arity; ++c) {
            const int kid = dag.childClasses[cls.firstChild + c];
            sched.depIds[l].push_back(state[kid] == kCompute
                                          ? row[kid]
                                          : num_compute + row[kid]);
        }
        sched.depOffsets[l].push_back(
            static_cast<int>(sched.depIds[l].size()));
    }

    // Read states enter the wavefront as one external block per
    // layer (h and c), rows in read order.
    nn::TreeLstm::LayerStates external;
    for (int l = 0; l < layers && num_stored > 0; ++l) {
        float* h = nullptr;
        float* c = nullptr;
        external.h.push_back(arenaMatrix(num_stored, hidden, &h));
        external.c.push_back(arenaMatrix(num_stored, hidden, &c));
        for (int e = 0; e < num_stored; ++e) {
            const float* src = stored.data() + e * block +
                2 * static_cast<std::size_t>(l) * hidden;
            std::copy(src, src + hidden,
                      h + static_cast<std::size_t>(e) * hidden);
            std::copy(src + hidden, src + 2 * hidden,
                      c + static_cast<std::size_t>(e) * hidden);
        }
    }

    nn::TreeLstm::LayerStates computed;
    if (num_compute > 0) {
        computed = lstm_.encodeUpward(sched, num_compute,
                                      embed_.forward(kinds), external);
        if (store != nullptr) {
            std::vector<float> states(block);
            for (std::size_t k = 0; k < num_classes; ++k) {
                if (state[k] != kCompute)
                    continue;
                for (int l = 0; l < layers; ++l) {
                    const float* h = computed.h[l].value().data() +
                        static_cast<std::size_t>(row[k]) * hidden;
                    const float* c = computed.c[l].value().data() +
                        static_cast<std::size_t>(row[k]) * hidden;
                    std::copy(h, h + hidden,
                              states.begin() + 2 * l * hidden);
                    std::copy(c, c + hidden,
                              states.begin() + (2 * l + 1) * hidden);
                }
                store->insert(dag.classes[k].digest, states.data(),
                              block);
            }
        }
    }

    if (reuse != nullptr) {
        reuse->nodes += dag.nodes;
        reuse->computed += static_cast<std::uint64_t>(num_compute);
        reuse->fromStore += from_store;
    }

    std::vector<ag::Var> out;
    out.reserve(dag.roots.size());
    for (int k : dag.roots)
        out.push_back(ag::rowSlice(state[k] == kCompute
                                       ? computed.h.back()
                                       : external.h.back(),
                                   row[k], 1));
    return out;
}

std::vector<nn::Parameter*>
TreeLstmEncoder::parameters()
{
    std::vector<nn::Parameter*> out = embed_.parameters();
    auto ps = lstm_.parameters();
    out.insert(out.end(), ps.begin(), ps.end());
    return out;
}

GcnEncoder::GcnEncoder(const EncoderConfig& cfg, Rng& rng)
    : embed_(kNumNodeKinds, cfg.embedDim, rng),
      gcn_(cfg.embedDim, cfg.hiddenDim, cfg.layers, rng)
{
}

ag::Var
GcnEncoder::encode(const Ast& ast) const
{
    auto adj = buildNormalizedAdjacency(ast);
    ag::Var x = embed_.forward(ast.kindIds());
    return gcn_.readout(adj, x);
}

std::vector<nn::Parameter*>
GcnEncoder::parameters()
{
    std::vector<nn::Parameter*> out = embed_.parameters();
    auto ps = gcn_.parameters();
    out.insert(out.end(), ps.begin(), ps.end());
    return out;
}

TokenLstmEncoder::TokenLstmEncoder(const EncoderConfig& cfg, Rng& rng)
    : embed_(kNumNodeKinds, cfg.embedDim, rng),
      cell_(cfg.embedDim, cfg.hiddenDim, rng, "tokenlstm")
{
}

ag::Var
TokenLstmEncoder::encode(const Ast& ast) const
{
    std::vector<ag::Var> xs;
    xs.reserve(static_cast<std::size_t>(ast.size()));
    ast.visitPreorder([&](int id) {
        xs.push_back(embed_.forward({kindId(ast.node(id).kind)}));
    });
    return cell_.runSequence(xs).h;
}

std::vector<nn::Parameter*>
TokenLstmEncoder::parameters()
{
    std::vector<nn::Parameter*> out = embed_.parameters();
    auto ps = cell_.parameters();
    out.insert(out.end(), ps.begin(), ps.end());
    return out;
}

std::unique_ptr<CodeEncoder>
makeEncoder(const EncoderConfig& cfg, Rng& rng)
{
    switch (cfg.kind) {
      case EncoderKind::TreeLstm:
        return std::make_unique<TreeLstmEncoder>(cfg, rng);
      case EncoderKind::Gcn:
        return std::make_unique<GcnEncoder>(cfg, rng);
      case EncoderKind::TokenLstm:
        return std::make_unique<TokenLstmEncoder>(cfg, rng);
    }
    panic("makeEncoder: invalid encoder kind");
}

} // namespace ccsa
